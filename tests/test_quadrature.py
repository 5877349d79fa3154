import string

import numpy as np
import pytest

from asep_lab.quadrature import GridValues, PairProducts, Spares, Workspace, contract_factored

GRID_LENGTHS = (7, 5, 9, 6)


def _complete_graph(rng, n_dims):
    lengths = GRID_LENGTHS[:n_dims]

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    vectors = {d: cplx(lengths[d]) for d in range(n_dims)}
    matrices = {(d, e): cplx(lengths[d], lengths[e])
                for d in range(n_dims) for e in range(d + 1, n_dims)}
    return vectors, matrices


def _einsum_reference(n_dims, vectors, matrices, scalar):
    letters = string.ascii_lowercase
    subs = [letters[d] for d in range(n_dims)]
    ops = [vectors[d] for d in range(n_dims)]
    for (d, e), mat in sorted(matrices.items()):
        subs.append(letters[d] + letters[e])
        ops.append(mat)
    return scalar * complex(np.einsum(",".join(subs) + "->", *ops))


@pytest.mark.parametrize("n_dims", [1, 2, 3, 4])
def test_contract_factored_matches_einsum(n_dims):
    rng = np.random.default_rng(100 + n_dims)
    vectors, matrices = _complete_graph(rng, n_dims)
    scalar = 0.7 - 0.2j
    got = contract_factored(n_dims, vectors, matrices, scalar)
    want = _einsum_reference(n_dims, vectors, matrices, scalar)
    assert got == pytest.approx(want, rel=1e-12)


def test_contract_factored_rejects_missing_pair():
    vectors, matrices = _complete_graph(np.random.default_rng(7), 3)
    del matrices[(0, 2)]
    with pytest.raises(ValueError, match=r"\(0, 2\)"):
        contract_factored(3, vectors, matrices)


def _square_graph(rng, n_dims, n):
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    vectors = {d: cplx(n) for d in range(n_dims)}
    matrices = {(d, e): cplx(n, n) for d in range(n_dims) for e in range(d + 1, n_dims)}
    return vectors, matrices


@pytest.mark.parametrize("n_dims", [3, 4])
def test_spares_change_no_bit_and_no_matrix(n_dims):
    vectors, matrices = _square_graph(np.random.default_rng(200 + n_dims), n_dims, 6)
    before = {k: m.copy() for k, m in matrices.items()}
    plain = contract_factored(n_dims, vectors, matrices, 0.3 - 0.1j)
    spares = Spares(*np.full((2, 6, 6), np.nan, complex))  # stale contents must not leak
    assert contract_factored(n_dims, vectors, matrices, 0.3 - 0.1j, spares) == plain
    assert all(np.array_equal(matrices[k], before[k]) for k in matrices)
    if n_dims == 3:
        # a caller done with its (0, 2) matrix may lend it as the first spare
        lent = dict(before)
        lent[(0, 2)] = before[(0, 2)].copy()
        got = contract_factored(3, vectors, lent, 0.3 - 0.1j, Spares(lent[(0, 2)], spares.fold))
        assert got == plain


def _fold_case(seed):
    """A 3-D graph, spares holding its fold, and a second graph that shares
    its (0, 2) and (1, 2) matrices and an equal dimension-2 vector."""
    rng = np.random.default_rng(seed)
    vectors, matrices = _square_graph(rng, 3, 6)
    spares = Spares(*np.empty((2, 6, 6), complex))
    contract_factored(3, vectors, matrices, 1.0, spares)
    other_vectors, other_matrices = _square_graph(rng, 3, 6)
    other_vectors[2] = vectors[2].copy()
    for pair in ((0, 2), (1, 2)):
        other_matrices[pair] = matrices[pair]
    return other_vectors, other_matrices, spares


def _contract_on_poisoned_fold(vectors, matrices, spares):
    # a held fold that is read back makes the value nan
    spares.fold[...] = np.nan
    return contract_factored(3, vectors, matrices, 0.3 - 0.1j, spares)


def test_a_held_fold_gives_the_bits_of_a_fresh_contraction():
    vectors, matrices, spares = _fold_case(300)
    fresh = contract_factored(3, vectors, matrices, 0.3 - 0.1j)
    assert contract_factored(3, vectors, matrices, 0.3 - 0.1j, spares) == fresh
    assert np.isnan(_contract_on_poisoned_fold(vectors, matrices, spares))


@pytest.mark.parametrize("change", ["v2 entry", "equal M02 copy", "equal M12 copy"])
def test_a_fold_is_not_reused_for_other_operands(change):
    vectors, matrices, spares = _fold_case(301)
    if change == "v2 entry":
        vectors[2][3] += 1e-12
    else:
        pair = (0, 2) if change == "equal M02 copy" else (1, 2)
        matrices[pair] = matrices[pair].copy()
    fresh = contract_factored(3, vectors, matrices, 0.3 - 0.1j)
    assert _contract_on_poisoned_fold(vectors, matrices, spares) == fresh


def test_the_fold_of_a_lent_matrix_is_not_reused():
    vectors, matrices = _square_graph(np.random.default_rng(302), 3, 6)
    original = matrices[(0, 2)].copy()
    fresh = contract_factored(3, vectors, matrices, 0.3 - 0.1j)
    spares = Spares(matrices[(0, 2)], np.empty((6, 6), complex))
    assert contract_factored(3, vectors, matrices, 0.3 - 0.1j, spares) == fresh
    # the contraction overwrote the lent matrix; a caller refills it for the next term
    matrices[(0, 2)][...] = original
    assert _contract_on_poisoned_fold(vectors, matrices, spares) == fresh


@pytest.mark.parametrize("rows", [1, 2])
def test_a_held_fold_never_outlives_its_term(rows):
    # two 3-D terms with equal dimension-2 vectors write their matrices in
    # turn into the same buffers; spares shared between them would read the
    # first term's fold back for the second
    rng = np.random.default_rng(303)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    workspace, v2, held = Workspace([(3, 6)], rows), cplx(6), []
    for _ in range(2):
        pairs = PairProducts(6)
        for a, b, hankel in ((0, 1, False), (0, 2, True), (1, 2, False)):
            pairs.multiply(a, b, hankel, cplx(11), 1)
        vectors = {0: cplx(6), 1: cplx(6), 2: v2}
        fresh = contract_factored(3, vectors, pairs.matrices(), 0.3 - 0.1j)
        matrices, spares = workspace.term(3, pairs)
        held.append(matrices[(1, 2)])
        for _ in range(rows):  # a second row reads its own term's fold back
            assert contract_factored(3, vectors, matrices, 0.3 - 0.1j, spares) == fresh
    assert np.shares_memory(*held)


def test_pair_matrices_written_into_buffers_equal_new_ones():
    rng = np.random.default_rng(5)
    pairs = PairProducts(5)
    for a, b, hankel in ((0, 1, False), (1, 0, True), (0, 2, True), (2, 1, False)):
        values = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        pairs.multiply(a, b, hankel, values, 1)
    fresh = pairs.matrices()
    buffers = list(np.full((3, 5, 5), np.nan, complex))
    written = pairs.matrices(buffers)
    assert fresh.keys() == written.keys() == {(0, 1), (0, 2), (1, 2)}
    assert all(np.array_equal(fresh[k], written[k]) for k in fresh)
    assert sorted(map(id, written.values())) == sorted(map(id, buffers))


def test_grid_values_are_computed_once_and_read_only():
    values, calls = GridValues(), []

    def compute():
        calls.append(1)
        return np.ones(3), np.zeros(3)

    first = values.get(("grid", 3, 0), compute)
    assert values.get(("grid", 3, 0), compute) is first and len(calls) == 1
    with pytest.raises(ValueError, match="read-only"):
        first[1][0] = 1.0

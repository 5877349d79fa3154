import string

import numpy as np
import pytest

from asep_lab.quadrature import PairProducts, Workspace, contract_factored

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


def _term(rng, workspace, n_dims, n=6):
    """Random vectors and a complete graph of Toeplitz and Hankel pair
    matrices, written into workspace as its current term; also new copies
    of the matrices."""
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    pairs = PairProducts(n)
    for a in range(n_dims):
        for b in range(a + 1, n_dims):
            pairs.multiply(a, b, (a + b) % 2 == 0, cplx(2 * n - 1), 1)
    vectors = {d: cplx(n) for d in range(n_dims)}
    return vectors, workspace.term(n_dims, pairs), pairs.matrices()


@pytest.mark.parametrize("n_dims", [3, 4])
def test_spares_change_no_bit_and_no_matrix(n_dims):
    for rows in (1, 2):
        workspace = Workspace([(n_dims, 6)], rows)
        workspace._block[...] = np.nan  # stale contents must not leak
        vectors, matrices, fresh = _term(np.random.default_rng(200 + n_dims), workspace, n_dims)
        plain = contract_factored(n_dims, vectors, fresh, 0.3 - 0.1j)
        assert contract_factored(n_dims, vectors, matrices, 0.3 - 0.1j, workspace) == plain
        # only a 3-D term at one row lends its (0, 2) matrix as a spare
        lent = {(0, 2)} if (n_dims, rows) == (3, 1) else set()
        assert {k for k in matrices if not np.array_equal(matrices[k], fresh[k])} == lent


def _fold_case(seed, rows=2):
    """A workspace whose 3-D term holds its fold, and a second graph of the
    same term that shares its (0, 2) and (1, 2) matrices and an equal
    dimension-2 vector."""
    rng = np.random.default_rng(seed)
    workspace = Workspace([(3, 6)], rows)
    vectors, matrices, _ = _term(rng, workspace, 3)
    contract_factored(3, vectors, matrices, 1.0, workspace)
    other_vectors = {d: rng.standard_normal(6) + 1j * rng.standard_normal(6) for d in (0, 1)}
    other_vectors[2] = vectors[2].copy()
    other_matrices = dict(matrices)
    other_matrices[(0, 1)] = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    return other_vectors, other_matrices, workspace


def _contract_on_poisoned_fold(vectors, matrices, workspace):
    # a held fold that is read back makes the value nan
    workspace._spares[-1][...] = np.nan
    return contract_factored(3, vectors, matrices, 0.3 - 0.1j, workspace)


def test_a_held_fold_gives_the_bits_of_a_fresh_contraction():
    vectors, matrices, workspace = _fold_case(300)
    fresh = contract_factored(3, vectors, {k: m.copy() for k, m in matrices.items()}, 0.3 - 0.1j)
    assert contract_factored(3, vectors, matrices, 0.3 - 0.1j, workspace) == fresh
    assert np.isnan(_contract_on_poisoned_fold(vectors, matrices, workspace))


@pytest.mark.parametrize("change", ["v2 entry", "equal M02 copy", "equal M12 copy"])
def test_a_fold_is_not_reused_for_other_operands(change):
    vectors, matrices, workspace = _fold_case(301)
    if change == "v2 entry":
        vectors[2][3] += 1e-12
    else:
        pair = (0, 2) if change == "equal M02 copy" else (1, 2)
        matrices[pair] = matrices[pair].copy()
    fresh = contract_factored(3, vectors, {k: m.copy() for k, m in matrices.items()}, 0.3 - 0.1j)
    assert _contract_on_poisoned_fold(vectors, matrices, workspace) == fresh


def test_the_fold_of_a_lent_matrix_is_not_reused():
    workspace = Workspace([(3, 6)], rows=1)
    vectors, matrices, copies = _term(np.random.default_rng(302), workspace, 3)
    fresh = contract_factored(3, vectors, copies, 0.3 - 0.1j)
    assert contract_factored(3, vectors, matrices, 0.3 - 0.1j, workspace) == fresh
    # the contraction overwrote the lent matrix; a caller refills it for the next row
    matrices[(0, 2)][...] = copies[(0, 2)]
    assert _contract_on_poisoned_fold(vectors, matrices, workspace) == fresh


@pytest.mark.parametrize("rows", [1, 2])
def test_a_held_fold_never_outlives_its_term(rows):
    # two 3-D terms with equal dimension-2 vectors write their matrices in
    # turn into the same buffers; a fold held across them would read the
    # first term's fold back for the second
    rng = np.random.default_rng(303)
    workspace, held = Workspace([(3, 6)], rows), []
    v2 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for _ in range(2):
        vectors, matrices, copies = _term(rng, workspace, 3)
        vectors[2] = v2
        fresh = contract_factored(3, vectors, copies, 0.3 - 0.1j)
        if held and rows > 1:
            # the first term's matrices view the buffers this term wrote, and
            # are the ones its held fold was keyed by
            assert contract_factored(3, vectors, held[0], 0.3 - 0.1j, workspace) == fresh
        held.append(matrices)
        for _ in range(rows):  # a second row reads its own term's fold back
            assert contract_factored(3, vectors, matrices, 0.3 - 0.1j, workspace) == fresh
    assert np.shares_memory(held[0][(1, 2)], held[1][(1, 2)])


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


@pytest.mark.parametrize("n", [6, 8])
def test_half_products_are_the_even_nodes_of_every_pair(n):
    # N = 6 leaves an odd half grid of 3 nodes; each pair mixes both types
    rng = np.random.default_rng(n)
    pairs = PairProducts(n)
    for a, b, hankel in ((0, 1, False), (1, 0, True), (0, 2, True), (2, 1, False), (1, 2, True)):
        values = rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1)
        pairs.multiply(a, b, hankel, values, 1)
    fine, half = pairs.matrices(), pairs.half().matrices()
    assert half.keys() == fine.keys()
    for k, matrix in half.items():
        assert matrix.shape == (n // 2, n // 2)
        assert np.array_equal(matrix, fine[k][::2, ::2])


@pytest.mark.parametrize("hankel", [False, True])
def test_a_one_factor_pair_matrix_is_copied_without_a_ufunc_buffer(hankel):
    # np.positive, which wrote these, allocated numpy's 128 KiB iterator
    # buffer for the strided view on every term
    import tracemalloc
    n = 152
    pairs = PairProducts(n)
    pairs.multiply(0, 1, hankel, np.linspace(1, 2, 2 * n - 1) + 1j, 1)
    buffers = [np.empty((n, n), complex)]
    fresh = pairs.matrices()
    tracemalloc.start()
    try:
        written = pairs.matrices(buffers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written[(0, 1)] is buffers[0] and np.array_equal(written[(0, 1)], fresh[(0, 1)])
    assert peak < 16 * 1024


def test_grid_values_are_computed_once_and_read_only():
    values, calls = Workspace([(1, 16)]), []

    def compute():
        calls.append(1)
        return np.ones(3), np.zeros(3)

    first = values.get(("grid", 3, 0), compute)
    assert values.get(("grid", 3, 0), compute) is first and len(calls) == 1
    with pytest.raises(ValueError, match="read-only"):
        first[1][0] = 1.0


def test_workspace_refuses_a_block_above_its_cap_before_allocating():
    from asep_lab.model import ValidityError
    # --nodes 100000 at n = 2 used to end in numpy's MemoryError for 37.3 GiB
    with pytest.raises(ValidityError, match="50000 nodes need 37.3 GiB"):
        Workspace([(1, 100000), (2, 50000)], rows=2)
    # the largest grids of the tests, the benchmark and the defaults, and
    # N = 1024 at n = 3, fit
    for shapes in ([(2, 256), (3, 256), (4, 160)], [(4, 366)], [(3, 1024)]):
        Workspace(shapes, rows=2)


@pytest.mark.parametrize("call", ["q_moment", "free_evolution_residuals", "she_moment"])
def test_a_call_constructs_one_workspace(call, monkeypatch):
    # a moment call's two passes and an SHE call's terms share one block and one memo
    from fractions import Fraction
    from asep_lab import kpz, moments
    from asep_lab.model import ModelParams
    built = []
    init = Workspace.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Workspace, "__init__", counted)
    params = ModelParams.from_density(1, Fraction(1, 2), Fraction(9, 10))
    quad = moments.QuadratureSpec((64, 48, 32, 32))
    if call == "q_moment":
        moments.q_moment(0.5, (1, 3, 4), params, quad)
    elif call == "free_evolution_residuals":
        moments.free_evolution_residuals(0.7, (1, 2, 4), params, quad)
    else:
        kpz.she_moment_residue_form(kpz.KpzParams(t=0.5, x=(0.1, 0.4), A=1.0))
    assert len(built) == 1

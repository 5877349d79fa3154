import string

import numpy as np
import pytest

from asep_lab.quadrature import PairProducts, contract_factored

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
    spares = tuple(np.full((2, 6, 6), np.nan, complex))  # stale contents must not leak
    assert contract_factored(n_dims, vectors, matrices, 0.3 - 0.1j, spares) == plain
    assert all(np.array_equal(matrices[k], before[k]) for k in matrices)
    if n_dims == 3:
        # a caller done with its (0, 2) matrix may lend it as the first spare
        lent = dict(before)
        lent[(0, 2)] = before[(0, 2)].copy()
        got = contract_factored(3, vectors, lent, 0.3 - 0.1j, (lent[(0, 2)], spares[1]))
        assert got == plain


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

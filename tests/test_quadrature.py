import string

import numpy as np
import pytest

from asep_lab.quadrature import PairFactor, contract_factored, line_nodes, line_pair_operands

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


def _line_grids(offsets, half_height=2.0, spacing=0.25):
    return [line_nodes(r, half_height, spacing, d)[0] for d, r in enumerate(offsets)]


def _dense_pair(grids, f):
    """The factor evaluated entry by entry on the outer grid, rows min(a, b)."""
    lo, hi = sorted((f.a, f.b))
    s_lo, s_hi = (f.sign_a, f.sign_b) if f.a < f.b else (f.sign_b, f.sign_a)
    if s_lo == -s_hi:
        arg = s_lo * np.subtract.outer(grids[lo], grids[hi]) + f.shift
    else:
        arg = s_lo * np.add.outer(grids[lo], grids[hi]) + f.shift
    return arg if f.power == 1 else 1.0 / arg


def test_line_pair_operands_match_dense_outer_products():
    grids = _line_grids((0.0, 1.3, -0.7))
    factors = [PairFactor(0, 1, 1, -1, 0, 1), PairFactor(0, 1, 1, -1, 1, -1),
               PairFactor(0, 1, 1, 1, 0, 1), PairFactor(0, 1, 1, 1, -1, -1),
               PairFactor(2, 0, -1, 1, 3, -1), PairFactor(2, 0, -1, -1, 2, 1),
               PairFactor(1, 2, -1, -1, -4, -1)]
    got = line_pair_operands(grids, factors)
    assert set(got) == {(0, 1), (0, 2), (1, 2)}
    for key, mat in got.items():
        want = np.ones_like(mat)
        for f in factors:
            if tuple(sorted((f.a, f.b))) == key:
                want = want * _dense_pair(grids, f)
        np.testing.assert_allclose(mat, want, rtol=1e-14, atol=0.0)


def test_line_pair_operands_single_structure_per_pair():
    grids = _line_grids((0.5, -1.0))
    toeplitz = PairFactor(0, 1, -1, 1, 2, -1)
    hankel = PairFactor(1, 0, 1, 1, -3, 1)
    for f in (toeplitz, hankel):
        mat = line_pair_operands(grids, [f])[(0, 1)]
        np.testing.assert_allclose(mat, _dense_pair(grids, f), rtol=1e-14, atol=0.0)


def test_line_pair_operands_reject_unlike_grids():
    factor = [PairFactor(0, 1, 1, -1, 0, 1)]
    other_spacing = [line_nodes(0.0, 2.0, 0.25, 0)[0], line_nodes(1.0, 1.5, 0.2, 1)[0]]
    other_length = [line_nodes(0.0, 2.0, 0.25, 0)[0], line_nodes(1.0, 3.0, 0.25, 1)[0]]
    with pytest.raises(ValueError, match="spacing"):
        line_pair_operands(other_spacing, factor)
    with pytest.raises(ValueError, match="nodes"):
        line_pair_operands(other_length, factor)

"""Trapezoid grids and tensor-product contraction of factored integrands.

Circle contours use uniformly spaced angular nodes, which converge
geometrically for integrands analytic in an annulus around the contour.
Each dimension's grid carries a distinct golden-ratio fraction of one
angular step as offset: reduced integrands have removable 0/0 points on
the diagonals z_i = z_j and anti-diagonals z_i z_j = 1/q of the torus
(and at z = +-radius), and factor-wise evaluation must never land exactly
on one.

Pair factors on both kinds of grid are Toeplitz or Hankel.  Vertical-line
grids (the SHE forms) all share one spacing h and one index range, so grid
d is w_d[k] = w_d[0] + i k h, k = 0..N-1.  A two-variable factor
g(s_a w_a + s_b w_b + c) with signs s = +-1 then depends on k_a - k_b alone
when s_a = -s_b (a Toeplitz matrix) and on k_a + k_b alone when s_a = s_b
(a Hankel matrix).  The circle grids of one diagram share a node count
N, z_d[k] = r e^{2 pi i (k + o_d)/N}, so a ratio or product of monomials
z_a^{+-1}, z_b^{+-1} depends on k_a - k_b or on k_a + k_b alone (the
moment code folds the per-node scale that is left into the vectors).
`PairProducts` is the one materializer for both: each factor is given on
its 2N - 1 distinct values, the Toeplitz-type and the Hankel-type vectors
of each dimension pair are multiplied separately, and the N x N pair matrix
is one product of two strided views.  Callers name a pair's dimensions in
the factor's own order; `PairProducts` alone orients the node indices and
keys the pair, with rows belonging to the lower dimension.

Integrals are contracted factor-wise: an integrand that is a product of
per-dimension vectors and pair matrices is summed in BLAS matrix products
instead of being materialised on the full tensor grid.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_GOLDEN = 0.6180339887498949


def circle_nodes(radius: float, n_nodes: int, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and dz/(2 pi i) weights on a positively oriented circle.

    dim selects the per-dimension angular offset.
    """
    offset = ((dim + 1) * _GOLDEN) % 1.0
    theta = (np.arange(n_nodes) + offset) * (2j * np.pi / n_nodes)
    z = radius * np.exp(theta)
    return z, z * (1.0 / n_nodes)


def line_nodes(real_part: float, half_height: float, spacing: float,
               dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and dw/(2 pi i) weights on an upward vertical line, truncated.

    Offsets keep every node off y = 0 and off other dimensions' grids.
    """
    offset = ((dim + 1) * _GOLDEN) % 1.0
    k_max = int(math.ceil(half_height / spacing))
    y = (np.arange(-k_max, k_max) + offset) * spacing
    w = real_part + 1j * y
    weights = np.full(w.shape, spacing / (2.0 * np.pi))
    return w, weights


class PairProducts:
    """Pair matrices of N x N grids, each built from 2N - 1 values.

    A factor of two dimensions' nodes that depends on k_a - k_b alone
    (Toeplitz type) or on k_a + k_b alone (Hankel type) takes one value per
    index difference or sum.  `entries` names one node pair (k_a, k_b) for
    each of those 2N - 1 values; `multiply` accumulates factors given on
    those entries, per dimension pair and type; `matrices` forms each N x N
    matrix as one product of two strided views.  Both take the dimensions
    a, b in factor order: rows belong to the lower one, and the entries run
    in the order k_lo - k_hi + N - 1 or k_lo + k_hi of its index k_lo.
    """

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self._entries: Dict[bool, Tuple[np.ndarray, np.ndarray]] = {}
        # (hankel, (a, b)) -> product of the factors' 2N - 1 values
        self._products: Dict[Tuple[bool, Tuple[int, int]], np.ndarray] = {}

    def entries(self, a: int, b: int, hankel: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Node indices (k_a, k_b) of the 2N - 1 distinct entries of pair (a, b)."""
        if hankel not in self._entries:
            n = self.n_nodes
            if hankel:
                row = np.minimum(np.arange(2 * n - 1), n - 1)
                self._entries[hankel] = (row, np.arange(2 * n - 1) - row)
            else:
                diff = np.arange(1 - n, n)
                self._entries[hankel] = (np.maximum(diff, 0), np.maximum(-diff, 0))
        rows, cols = self._entries[hankel]
        return (rows, cols) if a < b else (cols, rows)

    def multiply(self, a: int, b: int, hankel: bool, values: np.ndarray, power: int):
        """Multiply pair (a, b) by values ** power (power +-1) on `entries(a, b, hankel)`."""
        key = (hankel, (min(a, b), max(a, b)))
        prev = self._products.get(key, 1.0)
        self._products[key] = prev * values if power == 1 else prev / values

    def matrices(self, buffers: Optional[List[np.ndarray]] = None
                 ) -> Dict[Tuple[int, int], np.ndarray]:
        """The N x N matrix of every pair that received a factor.

        With buffers, N x N complex arrays, the matrix of the i-th pair to
        receive a factor is written into buffers[i] instead of a new array.
        """
        n = self.n_nodes
        views: Dict[Tuple[int, int], list] = {}
        for (hankel, pair), values in self._products.items():
            # row a, column b of the Toeplitz view reads entry a - b + N - 1
            view = (sliding_window_view(values, n) if hankel
                    else sliding_window_view(values[::-1], n)[::-1])
            views.setdefault(pair, []).append(view)
        matrices = {}
        for i, (pair, v) in enumerate(views.items()):
            out = None if buffers is None else buffers[i]
            # np.positive copies the single view exactly
            matrices[pair] = (np.multiply(v[0], v[1], out=out) if len(v) == 2
                              else np.positive(v[0], out=out))
        return matrices


def contract_factored(n_dims: int,
                      vectors: Dict[int, np.ndarray],
                      matrices: Dict[Tuple[int, int], np.ndarray],
                      scalar: complex = 1.0,
                      spares: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> complex:
    """Sum over the full tensor grid of per-dim vectors times all pair matrices.

    vectors[d] has the d-th grid length; matrices[(d, e)] with d < e couples
    grids d and e and must be given for every pair: the integrands here
    (diagram integrands and both SHE forms) couple all their variables, so
    the pair graph is complete, and anything else is a caller's bug.  The
    sum is exact and runs in BLAS: d = 1 is a sum, d = 2 a vector-matrix-
    vector product, d = 3 one matrix product, and d >= 4 a sweep over the
    nodes of dimension 0, each a (d-1)-dimensional contraction with that
    node's matrix rows folded into the vectors.

    spares, two N x N complex buffers on grids of one length N, take the
    3-D step's temporaries with out= (the product M02 * v2 and then the
    M01 product in the first, the matrix product in the second), so a
    caller that contracts many integrands allocates them once; they are
    passed down the d >= 4 sweep.  Without them the step allocates its
    own.  matrices are never written, except that in a 3-D contraction the
    first spare may be matrices[(0, 2)] itself when the caller is done with
    it: that matrix is read once, into the first spare.  The arithmetic is
    the same with or without spares, to the bit.
    """
    missing = [(d, e) for d in range(n_dims) for e in range(d + 1, n_dims)
               if (d, e) not in matrices]
    if missing:
        raise ValueError(f"pair graph is not complete: no matrix for dimensions {missing[0]}")
    return scalar * complex(_contract_complete([vectors[d] for d in range(n_dims)], matrices,
                                               spares))


def _contract_complete(vectors: List[np.ndarray],
                       matrices: Dict[Tuple[int, int], np.ndarray],
                       spares: Optional[Tuple[np.ndarray, np.ndarray]]) -> complex:
    n_dims = len(vectors)
    if n_dims == 1:
        return vectors[0].sum()
    if n_dims == 2:
        return vectors[0] @ matrices[(0, 1)] @ vectors[1]
    if n_dims == 3:
        # sum_a u_a sum_b (M01 v1)_ab sum_c (M02 v2)_ac M12_bc
        first, inner = spares or (None, None)
        first = np.multiply(matrices[(0, 2)], vectors[2], out=first)
        inner = np.matmul(first, matrices[(1, 2)].T, out=inner)
        m01 = matrices[(0, 1)]
        first = np.multiply(m01, vectors[1], out=first if first.shape == m01.shape else None)
        first *= inner
        return first.sum(axis=1) @ vectors[0]
    rest = {(d - 1, e - 1): m for (d, e), m in matrices.items() if d > 0}
    total = 0.0
    for a, weight in enumerate(vectors[0]):
        folded = [vectors[e] * matrices[(0, e)][a] for e in range(1, n_dims)]
        total += weight * _contract_complete(folded, rest, spares)
    return total

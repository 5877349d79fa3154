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
instead of being materialised on the full tensor grid.  A call that sums
many integrands (terms) builds, contracts and drops them one at a time in
one `Workspace`, its only scratch: each term's pair matrices are written
into its buffers, the three-dimensional step's matrix product is kept
there for the next site vector of the same term that shares it, and each
value the terms share is computed once in its memo.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .model import ValidityError

_GOLDEN = 0.6180339887498949

# the largest `Workspace` block: n = 2 q_moment on with_1d_nodes(16384) fills
# it (N = 8,192), in about 1 s and 1.1 GB of max RSS on 2 cores, one BLAS thread
MAX_WORKSPACE_BYTES = 2 ** 30


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

    def half(self) -> "PairProducts":
        """The products on the even-indexed nodes k = 2j of an even N: N/2 x N/2.

        Index difference j_a - j_b on the half grid is 2(j_a - j_b) on this
        one, at entry 2(j_a - j_b + N/2 - 1) + 1, and a sum j_a + j_b is
        2(j_a + j_b), so the half grid's values are every other one, from 1
        (Toeplitz) or 0 (Hankel): views, no copy.
        """
        n = self.n_nodes // 2
        half = PairProducts(n)
        for (hankel, pair), values in self._products.items():
            start = 0 if hankel else 1
            half._products[(hankel, pair)] = values[start::2][:2 * n - 1]
        return half

    def matrices(self, buffers: Optional[List[np.ndarray]] = None
                 ) -> Dict[Tuple[int, int], np.ndarray]:
        """The N x N matrix of every pair that received a factor.

        With buffers, N x N complex arrays, the matrix of the i-th pair to
        receive a factor is written into buffers[i] instead of a new array.
        """
        n = self.n_nodes
        views: Dict[Tuple[int, int], list] = {}
        for (hankel, pair), values in self._products.items():
            # row a, column b reads entry a + b (Hankel) or a - b + N - 1 (Toeplitz)
            step = values.strides[0]
            view = (as_strided(values, (n, n), (step, step), writeable=False) if hankel
                    else as_strided(values[n - 1:], (n, n), (step, -step), writeable=False))
            views.setdefault(pair, []).append(view)
        matrices = {}
        for i, (pair, v) in enumerate(views.items()):
            out = None if buffers is None else buffers[i]
            if len(v) == 2:
                matrices[pair] = np.multiply(v[0], v[1], out=out)
            elif out is None:
                matrices[pair] = v[0].copy()
            else:
                # a copy, unlike a ufunc, needs no iterator buffer for the view
                np.copyto(out, v[0])
                matrices[pair] = out
        return matrices


class Workspace:
    """One call's scratch: the N x N complex buffers its terms are contracted
    in, and a memo of the arrays they share on its grids.

    A call (one moment's pass, one SHE evaluation) contracts its terms one
    at a time: each writes its pair matrices into the buffers (`term`), and
    nothing of a term outlives the next one; a moment's diagram is two
    terms in turn, on its fine grid and on the half grid
    (`PairProducts.half`), which fits in the fine grid's buffers.  The
    buffers are views of one block, sized for the largest of shapes, the
    (dimensions, node count) of the call's terms, so the call allocates once
    and no term allocates an N x N array.  A block above
    MAX_WORKSPACE_BYTES raises ValidityError instead.

    A 3-D contraction's N^3 step is the fold (M02 * v2) M12^T, which depends
    on matrices[(0, 2)], matrices[(1, 2)] and vectors[2] alone.  `fold`
    computes it into the term's last buffer and remembers it by those two
    matrices (by identity) and v2 (by its bytes); a later contraction of the
    same term with the same three reads it back, to the same bits.  `term`
    forgets it, since the next term's matrices go into the same buffers.  A
    3-D term contracted at one site vector (rows == 1) reads its (0, 2)
    matrix once, so that matrix is the fold's free buffer and its fold is
    never reused; at more rows, and in the d >= 4 sweep, which reads its
    matrices once per node, the free buffer is one of its own.

    `get(key, compute)` returns what is stored under key, calling compute()
    the first time.  Keys name the grid (node count, dimension) and the
    expression (factor kind, monomial exponents).  Values are arrays or
    tuples of arrays, and `store` keeps them read-only, so a reader that
    writes into one in place raises instead of changing a later reader's
    value.  (A subclass on a hot path looks its key up in `_values` and
    calls `store` on a miss, without a closure.)
    """

    def __init__(self, shapes: Iterable[Tuple[int, int]], rows: int = 1):
        self.rows = rows
        n_dims, n = max(shapes, key=lambda s: self._count(s[0]) * s[1] ** 2, default=(1, 0))
        size = self._count(n_dims) * n * n
        if 16 * size > MAX_WORKSPACE_BYTES:  # 16 bytes a complex value
            raise ValidityError(f"{n_dims}-D terms on {n} nodes need {16 * size / 2 ** 30:.1f} "
                                "GiB of N x N buffers, above the cap of "
                                f"{MAX_WORKSPACE_BYTES / 2 ** 30:g} GiB")
        self._block = np.empty(size, complex)
        self._values: Dict[tuple, object] = {}
        self._spares: List[np.ndarray] = []  # the term's (free buffer, fold)
        self._held: Optional[tuple] = None  # (M02, M12, v2 bytes) of the fold

    def _count(self, n_dims: int) -> int:
        """Buffers of an n_dims term: its pair matrices, then its spares."""
        spares = 0 if n_dims < 3 else 1 if n_dims == 3 and self.rows == 1 else 2
        return n_dims * (n_dims - 1) // 2 + spares

    def term(self, n_dims: int, pairs: PairProducts) -> Dict[Tuple[int, int], np.ndarray]:
        """A term's pair matrices, written into the buffers."""
        n, count = pairs.n_nodes, self._count(n_dims)
        buffers = list(self._block[:count * n * n].reshape(count, n, n))
        n_pairs = n_dims * (n_dims - 1) // 2
        matrices = pairs.matrices(buffers[:n_pairs])
        self._spares, self._held = buffers[n_pairs:], None
        if len(self._spares) == 1:
            self._spares.insert(0, matrices[(0, 2)])
        return matrices

    def fold(self, m02: np.ndarray, m12: np.ndarray, v2: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray]:
        """A free N x N buffer and (m02 * v2) m12^T of the current 3-D or larger term."""
        first, fold = self._spares
        key = v2.tobytes()
        held = self._held
        if held is None or held[0] is not m02 or held[1] is not m12 or held[2] != key:
            np.multiply(m02, v2, out=first)
            np.matmul(first, m12.T, out=fold)
            self._held = None if first is m02 else (m02, m12, key)
        return first, fold

    def get(self, key: tuple, compute: Callable[[], object]):
        value = self._values.get(key)
        return self.store(key, compute()) if value is None else value

    def store(self, key: tuple, value):
        """Keep value under key, read-only, and return it."""
        for array in value if isinstance(value, tuple) else (value,):
            array.setflags(write=False)
        self._values[key] = value
        return value


def contract_factored(n_dims: int,
                      vectors: Dict[int, np.ndarray],
                      matrices: Dict[Tuple[int, int], np.ndarray],
                      scalar: complex = 1.0,
                      workspace: Optional[Workspace] = None) -> complex:
    """Sum over the full tensor grid of per-dim vectors times all pair matrices.

    vectors[d] has the d-th grid length; matrices[(d, e)] with d < e couples
    grids d and e and must be given for every pair: the integrands here
    (diagram integrands and both SHE forms) couple all their variables, so
    the pair graph is complete, and anything else is a caller's bug.  The
    sum is exact and runs in BLAS: d = 1 is a sum, d = 2 a vector-matrix-
    vector product, d = 3 one matrix product, and d >= 4 a sweep over the
    nodes of dimension 0, each a (d-1)-dimensional contraction with that
    node's matrix rows folded into the vectors.

    workspace, on grids of one length N and after `workspace.term` wrote the
    matrices, takes the 3-D step's temporaries into its buffers with out=,
    so a caller that contracts many integrands allocates them once, and it
    keeps the step's matrix product, the fold, for the next contraction
    that has the same (0, 2) and (1, 2) matrices and dimension-2 vector
    (`Workspace.fold`).  It is passed down the d >= 4 sweep.  Without it the
    step allocates its own.  matrices are never written, except a (0, 2)
    matrix that the workspace lends as the fold's free buffer.  The
    arithmetic is the same with or without a workspace, and with or without
    a held fold, to the bit.
    """
    missing = [(d, e) for d in range(n_dims) for e in range(d + 1, n_dims)
               if (d, e) not in matrices]
    if missing:
        raise ValueError(f"pair graph is not complete: no matrix for dimensions {missing[0]}")
    return scalar * complex(_contract_complete([vectors[d] for d in range(n_dims)], matrices,
                                               workspace))


def _contract_complete(vectors: List[np.ndarray],
                       matrices: Dict[Tuple[int, int], np.ndarray],
                       workspace: Optional[Workspace]) -> complex:
    n_dims = len(vectors)
    if n_dims == 1:
        return vectors[0].sum()
    if n_dims == 2:
        return vectors[0] @ matrices[(0, 1)] @ vectors[1]
    if n_dims == 3:
        # sum_a u_a sum_b (M01 v1)_ab sum_c (M02 v2)_ac M12_bc
        if workspace is None:
            first = np.multiply(matrices[(0, 2)], vectors[2])
            inner = np.matmul(first, matrices[(1, 2)].T)
        else:
            first, inner = workspace.fold(matrices[(0, 2)], matrices[(1, 2)], vectors[2])
        m01 = matrices[(0, 1)]
        first = np.multiply(m01, vectors[1], out=first if first.shape == m01.shape else None)
        first *= inner
        return first.sum(axis=1) @ vectors[0]
    rest = {(d - 1, e - 1): m for (d, e), m in matrices.items() if d > 0}
    total = 0.0
    for a, weight in enumerate(vectors[0]):
        folded = [vectors[e] * matrices[(0, e)][a] for e in range(1, n_dims)]
        total += weight * _contract_complete(folded, rest, workspace)
    return total

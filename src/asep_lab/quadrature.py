"""Trapezoid grids and tensor-product contraction of factored integrands.

Circle contours use uniformly spaced angular nodes, which converge
geometrically for integrands analytic in an annulus around the contour.
Each dimension's grid carries a distinct golden-ratio fraction of one
angular step as offset: reduced integrands have removable 0/0 points on
the diagonals z_i = z_j and anti-diagonals z_i z_j = 1/q of the torus
(and at z = +-radius), and factor-wise evaluation must never land exactly
on one.

Integrals are contracted factor-wise: an integrand that is a product of
per-dimension vectors and pair matrices is summed in BLAS matrix products
instead of being materialised on the full tensor grid.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

_GOLDEN = 0.6180339887498949


def circle_nodes(radius: float, n_nodes: int, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and dz/(2 pi i) weights on a positively oriented circle.

    dim selects the per-dimension angular offset.
    """
    offset = ((dim + 1) * _GOLDEN) % 1.0
    theta = 2.0 * np.pi * (np.arange(n_nodes) + offset) / n_nodes
    z = radius * np.exp(1j * theta)
    return z, z / n_nodes


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


def contract_factored(n_dims: int,
                      vectors: Dict[int, np.ndarray],
                      matrices: Dict[Tuple[int, int], np.ndarray],
                      scalar: complex = 1.0) -> complex:
    """Sum over the full tensor grid of per-dim vectors times all pair matrices.

    vectors[d] has the d-th grid length; matrices[(d, e)] with d < e couples
    grids d and e and must be given for every pair: the integrands here
    (diagram integrands and both SHE forms) couple all their variables, so
    the pair graph is complete, and anything else is a caller's bug.  The
    sum is exact and runs in BLAS: d = 1 is a sum, d = 2 a vector-matrix-
    vector product, d = 3 one matrix product, and d >= 4 a sweep over the
    nodes of dimension 0, each a (d-1)-dimensional contraction with that
    node's matrix rows folded into the vectors.
    """
    pairs = {(d, e) for d in range(n_dims) for e in range(d + 1, n_dims)}
    missing = sorted(pairs - set(matrices))
    if missing:
        raise ValueError(f"pair graph is not complete: no matrix for dimensions {missing[0]}")
    return scalar * complex(_contract_complete([vectors[d] for d in range(n_dims)], matrices))


def _contract_complete(vectors: List[np.ndarray],
                       matrices: Dict[Tuple[int, int], np.ndarray]) -> complex:
    n_dims = len(vectors)
    if n_dims == 0:
        return 1.0
    if n_dims == 1:
        return vectors[0].sum()
    if n_dims == 2:
        return vectors[0] @ matrices[(0, 1)] @ vectors[1]
    if n_dims == 3:
        # sum_a u_a sum_b (M01 v1)_ab sum_c (M02 v2)_ac M12_bc
        inner = (matrices[(0, 2)] * vectors[2]) @ matrices[(1, 2)].T
        return ((matrices[(0, 1)] * vectors[1]) * inner).sum(axis=1) @ vectors[0]
    rest = {(d - 1, e - 1): m for (d, e), m in matrices.items() if d > 0}
    total = 0.0
    for a, weight in enumerate(vectors[0]):
        folded = [vectors[e] * matrices[(0, e)][a] for e in range(1, n_dims)]
        total += weight * _contract_complete(folded, rest)
    return total

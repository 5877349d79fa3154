"""Finite dual generator matrix on the segment chamber and its linear ODE.

The dual n-particle process on ordered site vectors in [1, ell] has a
C(ell, n)-dimensional generator; expectations of the observable H evolve
as u(t) = exp(t M) u(0), which is cross-checked against the segment
simulator and against the lattice heat-equation reformulation with its two
boundary relations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import expm

from .duality import DUAL_SEGMENT, SEGMENT, GeneratorSpec, chamber_vectors
from .model import SegmentParams, SegmentState, ValidityError, h_product_segment


def chamber(ell: int, n: int) -> List[Tuple[int, ...]]:
    """Ordered site vectors 1 <= x_1 < ... < x_n <= ell, in colex order."""
    if not (1 <= n <= ell):
        raise ValidityError(f"chamber is empty for n={n}, ell={ell}")
    return sorted(chamber_vectors(1, ell, n), key=lambda c: c[::-1])


@dataclass
class DualMatrix:
    """Generator matrix of the dual process over the chamber basis."""

    params: SegmentParams
    n: int
    vectors: List[Tuple[int, ...]]
    index: Dict[Tuple[int, ...], int]
    matrix: np.ndarray                    # float entries
    exact: Optional[list] = None          # nested lists of Fractions on request

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def build_dual_matrix(params: SegmentParams, n: int, exact: bool = False) -> DualMatrix:
    """Matrix M with (M f)(x) = dual-generator f(x) on every chamber vector.

    Row sums equal -(p-q) rho0 [x_1 = 1] + (p-q) rho_ell [x_n = ell]; with
    closed boundaries the matrix is an honest generator (zero row sums).
    """
    vectors = chamber(params.ell, n)
    index = {v: i for i, v in enumerate(vectors)}
    gen = GeneratorSpec(DUAL_SEGMENT, params, n)
    dim = len(vectors)
    # exact entries of the nonzero pattern, at most 2n + 1 per row
    entries: Dict[Tuple[int, int], Fraction] = {}
    for i, x in enumerate(vectors):
        diag = gen.diagonal(x)
        for rate, y in gen.transitions(x):
            key = (i, index[y])
            entries[key] = entries.get(key, 0) + rate
            diag -= rate
        entries[(i, i)] = entries.get((i, i), 0) + diag
    matrix = np.zeros((dim, dim))
    rows_idx, cols_idx = zip(*entries)
    matrix[rows_idx, cols_idx] = [float(v) for v in entries.values()]
    rows = None
    if exact:
        rows = [[Fraction(0)] * dim for _ in range(dim)]
        for (i, j), v in entries.items():
            rows[i][j] = v
    return DualMatrix(params, n, vectors, index, matrix, exact=rows)


def _initial_vector(dual: DualMatrix, state: SegmentState) -> np.ndarray:
    q = float(dual.params.q)
    return np.array([float(h_product_segment(state.eta, state.n_ell, x, q))
                     for x in dual.vectors])


@dataclass
class OdeSolution:
    dual: DualMatrix
    t: float
    values: np.ndarray
    derivative: np.ndarray
    solver_error: float

    def value(self, x: Sequence[int]) -> float:
        return float(self.values[self.dual.index[tuple(x)]])


def solve_u(t: float, initial: SegmentState, params: SegmentParams, n: int,
            dual: Optional[DualMatrix] = None) -> OdeSolution:
    """u(t) = exp(t M) u(0) with u(0; x) = H(initial; x).

    The solver error estimate compares one exp(tM) application against two
    half-step applications.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValidityError("time must be finite and nonnegative")
    if not params.liggett2_ok():
        raise ValidityError("segment ODE characterization requires Liggett's "
                            "condition at both boundaries")
    dual = dual or build_dual_matrix(params, n)
    u0 = _initial_vector(dual, initial)
    if t == 0:
        return OdeSolution(dual, 0.0, u0, dual.matrix @ u0, 0.0)
    propagator = expm(t * dual.matrix)
    u = propagator @ u0
    half = expm(0.5 * t * dual.matrix)
    u2 = half @ (half @ u0)
    err = float(np.max(np.abs(u - u2)))
    return OdeSolution(dual, t, u, dual.matrix @ u, err)


@dataclass
class SegmentFreeEvolutionReport:
    """Residuals of the lattice reformulation against the matrix ODE."""

    residuals: Dict[Tuple[int, ...], float]

    def max_residual(self) -> float:
        return max(self.residuals.values())


def check_segment_free_evolution(t: float, initial: SegmentState,
                                 params: SegmentParams, n: int) -> SegmentFreeEvolutionReport:
    """Verify the heat-equation form of the dual ODE via boundary extensions.

    u is extended to x_1 = 0 by u(0, x2, ...) = (rho0 q + 1 - rho0) u(1, x2, ...)
    and to x_n = ell + 1 by u(..., ell+1) = (rho_ell / q + 1 - rho_ell) u(..., ell);
    colliding shifts from adjacent occupied pairs are resolved by the
    two-point relation p u(.., x_i, x_i, ..) + q u(.., x_i+1, x_i+1, ..) =
    (p+q) u(x).  With those substitutions the free lattice Laplacian must
    reproduce d/dt u = M u at every chamber vector.
    """
    dual = build_dual_matrix(params, n)
    sol = solve_u(t, initial, params, n, dual)

    p = float(params.p_rate)
    qr = float(params.q_rate)
    q = float(params.q)
    rho0 = float(params.rho0)
    rho_ell = float(params.rho_ell)
    c_left = rho0 * q + 1.0 - rho0
    c_right = rho_ell / q + 1.0 - rho_ell
    ell = params.ell

    def u_ext(x: Tuple[int, ...]) -> float:
        if x[0] == 0:
            return c_left * u_ext((1,) + x[1:])
        if x[-1] == ell + 1:
            return c_right * u_ext(x[:-1] + (ell,))
        return sol.value(x)

    residuals: Dict[Tuple[int, ...], float] = {}
    for idx, x in enumerate(dual.vectors):
        lattice = -n * (p + qr) * sol.value(x)
        for i in range(n):
            blocked_down = i > 0 and x[i] - 1 == x[i - 1]
            blocked_up = i < n - 1 and x[i] + 1 == x[i + 1]
            if blocked_up:
                # adjacent pair: p u(x_{i+1}-1 slot) + q u(x_i+1 slot) = (p+q) u(x)
                lattice += (p + qr) * sol.value(x)
            if not blocked_down:
                lattice += p * u_ext(x[:i] + (x[i] - 1,) + x[i + 1:])
            if not blocked_up:
                lattice += qr * u_ext(x[:i] + (x[i] + 1,) + x[i + 1:])
        residuals[x] = abs(float(sol.derivative[idx]) - lattice)
    return SegmentFreeEvolutionReport(residuals)


def occupancy_generator(params: SegmentParams):
    """Master-equation matrix of the occupancy marginal (through-count dropped).

    Returns (states, A) with A[y, x] the rate x -> y and negative column
    sums of outflow on the diagonal, so columns sum to zero exactly and the
    forward equation conserves mass.
    """
    ell = params.ell
    states = list(itertools.product((0, 1), repeat=ell - 1))
    index = {s: i for i, s in enumerate(states)}
    gen = GeneratorSpec(SEGMENT, params)
    dim = len(states)
    A = [[Fraction(0)] * dim for _ in range(dim)]
    for x_idx, eta in enumerate(states):
        for rate, (new_eta, _n) in gen.transitions((eta, 0)):
            A[index[new_eta]][x_idx] += rate
            A[x_idx][x_idx] -= rate
    return states, A


def stationary_distribution(params: SegmentParams) -> Dict[tuple, float]:
    """Exact stationary occupancy distribution from the master-equation matrix."""
    states, A = occupancy_generator(params)
    mat = np.array([[float(v) for v in row] for row in A])
    # replace one balance row by normalization
    mat[-1, :] = 1.0
    rhs = np.zeros(len(states))
    rhs[-1] = 1.0
    pi = np.linalg.solve(mat, rhs)
    return {s: float(p) for s, p in zip(states, pi)}

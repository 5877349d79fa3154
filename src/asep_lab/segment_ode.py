"""Finite dual generator matrix on the segment chamber and its linear ODE.

The dual n-particle process on ordered site vectors in [1, ell] has a
C(ell, n)-dimensional generator M with at most 2n + 1 nonzeros per row,
kept as a sparse CSR matrix; expectations of the observable H evolve as
u(t) = exp(t M) u(0), computed by the action of the exponential on the one
vector u(0) (a truncated Taylor series in sub-steps, Al-Mohy & Higham,
SIAM J. Sci. Comput. 33 (2011)), never by forming exp(t M).  Memory grows
with the chamber dimension and time with t times the 1-norm of M.  The
solution is cross-checked against the segment simulator and against the
lattice heat-equation reformulation with its two boundary relations.

Every caller is refused a chamber above C(ell, n) = MAX_SEGMENT_DIMENSION
before any site vector is enumerated (`chamber`), and a solve above
MAX_SEGMENT_WORK before it is solved (`solve_u`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

import numpy as np

from .duality import chamber_vectors, dual_moves, dual_segment_diagonal, segment_moves
from .model import SegmentParams, SegmentState, ValidityError, h_product_segment

if TYPE_CHECKING:
    from scipy.sparse import csr_array


# the exponential's action on a vector; solve_u applies exp(tM) only through
# this name.  scipy's sparse modules (about 0.25 s to import) load at its first
# call or the first build_dual_matrix, not with asep_lab
def expm(A, v):
    """exp(A) v by scipy's expm_multiply, its result unchanged."""
    from scipy.sparse.linalg import expm_multiply
    return expm_multiply(A, v)


# expm_multiply covers a step exp(A) v with 1-norm ||A - mu I||_1 <= 9.9,
# mu = trace(A) / dim, by one Taylor polynomial of degree at most 55 whose
# degree comes from that exact 1-norm (Al-Mohy & Higham's theta_55).  Above
# 63.36 it would instead estimate 1-norms of powers of A with onenormest,
# which draws from numpy's global random state.
_STEP_NORM = 9.9

# the largest chamber C(ell, n) built, solved and printed row by row: about
# 3 s and 150 MB at 100,000 on 2 cores
MAX_SEGMENT_DIMENSION = 100_000

# the largest solve, as _substeps(M, t) * max(nnz(M), 10,000): an
# expm_multiply call costs about the same up to 10,000 nonzeros.  Timed on
# 2 cores, the cap is about 38 s at C(12, 6) = 924 (6,468 nonzeros), 27 s at
# C(18, 6) and 28 s at C(24, 6) (1,345,960 nonzeros)
MAX_SEGMENT_WORK = 10 ** 8


def chamber(ell: int, n: int) -> List[Tuple[int, ...]]:
    """Ordered site vectors 1 <= x_1 < ... < x_n <= ell, in colex order."""
    if not (1 <= n <= ell):
        raise ValidityError(f"chamber is empty for n={n}, ell={ell}")
    dim = math.comb(ell, n)
    if dim > MAX_SEGMENT_DIMENSION:
        raise ValidityError(f"chamber dimension C({ell}, {n}) = {dim} exceeds "
                            f"the cap of {MAX_SEGMENT_DIMENSION}")
    return sorted(chamber_vectors(1, ell, n), key=lambda c: c[::-1])


@dataclass
class DualMatrix:
    """Generator matrix of the dual process over the chamber basis."""

    params: SegmentParams
    n: int
    vectors: List[Tuple[int, ...]]
    index: Dict[Tuple[int, ...], int]
    matrix: csr_array                     # float entries, sparse

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def generator_matrix(states: Sequence, moves: Callable, diagonal: Callable,
                     denominator: int) -> Tuple[Dict[object, int], csr_array]:
    """(index, M) with (M f)(x) = sum of rate (f(y) - f(x)) over moves(x), plus
    diagonal(x) f(x), on `states`; index maps each state to its row.

    Rates and diagonals are ints over `denominator` (an `integer_rates` view),
    and moves that reach the same y add.  Each entry is summed as an int and
    divided once, and int / int division is correctly rounded, so it is the
    float nearest the exact rational entry.
    """
    from scipy.sparse import csr_array
    index = {s: i for i, s in enumerate(states)}
    indptr, indices, totals = [0], [], []
    for i, x in enumerate(states):
        row = {i: diagonal(x)}
        for rate, y in moves(x):
            j = index[y]
            row[j] = row.get(j, 0) + rate
            row[i] -= rate
        for j in sorted(row):
            indices.append(j)
            totals.append(row[j])
        indptr.append(len(indices))
    data = np.array([v / denominator for v in totals])
    return index, csr_array((data, np.array(indices), np.array(indptr)), shape=(len(states),) * 2)


def build_dual_matrix(params: SegmentParams, n: int) -> DualMatrix:
    """Matrix M with (M f)(x) = dual-generator f(x) on every chamber vector.

    Row sums equal -(p-q) rho0 [x_1 = 1] + (p-q) rho_ell [x_n = ell]; with
    closed boundaries the matrix is an honest generator (zero row sums).
    Its entries are exact rationals rounded once (`generator_matrix`).
    """
    vectors = chamber(params.ell, n)
    rates = params.integer_rates
    index, matrix = generator_matrix(vectors, lambda x: dual_moves(rates, x, 1, params.ell),
                                     lambda x: dual_segment_diagonal(rates, x),
                                     rates.denominator)
    return DualMatrix(params, n, vectors, index, matrix)


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


def _substeps(matrix: csr_array, t: float) -> int:
    """Sub-steps of t whose t (M - mu I) / steps has 1-norm at most _STEP_NORM.

    Bounded by the triangle inequality, ||M - mu I||_1 <= ||M||_1 + |mu|.
    """
    mu = abs(matrix.trace()) / matrix.shape[0]
    norm = float(abs(matrix).sum(axis=0).max()) + mu
    return max(1, math.ceil(t * norm / _STEP_NORM))


def _propagate(matrix: csr_array, v: np.ndarray, t: float, steps: int) -> np.ndarray:
    """exp(t M) v as `steps` applications of exp((t / steps) M)."""
    step = (t / steps) * matrix
    for _ in range(steps):
        v = expm(step, v)
    return v


def solve_u(t: float, initial: SegmentState, params: SegmentParams, n: int) -> OdeSolution:
    """u(t) = exp(t M) u(0) with u(0; x) = H(initial; x).

    The exponential acts on the vector u(0) in sub-steps of one Taylor
    polynomial each (see _STEP_NORM), so no dense matrix is formed and
    numpy's global random state is left alone.  The solver error estimate
    compares one application over t against two half-step applications
    over t / 2, each cut into as many sub-steps as the full one: every
    sub-step of the full path faces two shorter polynomials on the other.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValidityError("time must be finite and nonnegative")
    if not params.liggett2_ok():
        raise ValidityError("segment ODE characterization requires Liggett's "
                            "condition at both boundaries")
    dual = build_dual_matrix(params, n)
    matrix = dual.matrix
    u0 = _initial_vector(dual, initial)
    if t == 0:
        return OdeSolution(dual, 0.0, u0, matrix @ u0, 0.0)
    steps = _substeps(matrix, t)
    if steps * max(matrix.nnz, 10_000) > MAX_SEGMENT_WORK:
        raise ValidityError(f"t = {t} needs {steps} sub-steps on {matrix.nnz} nonzeros, "
                            f"above the cap of {MAX_SEGMENT_WORK:.0e} work")
    u = _propagate(matrix, u0, t, steps)
    half = 0.5 * t
    u2 = _propagate(matrix, _propagate(matrix, u0, half, steps), half, steps)
    err = float(np.max(np.abs(u - u2)))
    return OdeSolution(dual, t, u, matrix @ u, err)


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
    sol = solve_u(t, initial, params, n)

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
    for idx, x in enumerate(sol.dual.vectors):
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


def stationary_distribution(params: SegmentParams) -> Dict[tuple, float]:
    """Stationary law of the occupations on sites 1..ell-1, through-count dropped.

    The forward equation's matrix is the transposed `generator_matrix` of
    `segment_moves`; one balance row is replaced by the normalization.  A
    closed segment (alpha = gamma = beta = delta = 0) keeps its particle
    number, so it has no unique stationary law and is refused.
    """
    if params.alpha == params.gamma == params.beta == params.delta == 0:
        raise ValidityError("a closed segment (alpha = gamma = beta = delta = 0) conserves "
                            "its particle number and has no unique stationary law")
    states = list(itertools.product((0, 1), repeat=params.ell - 1))
    rates = params.integer_rates
    _, generator = generator_matrix(
        states, lambda eta: [(rate, y) for rate, (y, _) in segment_moves(rates, (eta, 0))],
        lambda eta: 0, rates.denominator)
    mat = generator.T.toarray()
    mat[-1, :] = 1.0
    rhs = np.zeros(len(states))
    rhs[-1] = 1.0
    pi = np.linalg.solve(mat, rhs)
    return {s: float(p) for s, p in zip(states, pi)}

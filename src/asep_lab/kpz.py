"""Moments of the half-line stochastic heat equation and the ASEP bridge.

Three routes to the same numbers:

* nested vertical-line integrals with ordered real parts (Robin kernel
  w/(A+w), Dirichlet kernel w);
* a residue expansion over the same valley diagrams as the lattice
  moments, for either kernel: the `residues` reduction of the lattice
  integrand, read additively (q z -> w + 1 for plus arrows, 1/z -> 1 - w
  for minus arrows), with all contours on the imaginary axis;
* the weak-asymmetry-scaled lattice moment, which converges to the
  continuum value as the asymmetry epsilon goes to zero.

A Crank-Nicolson solve of the deterministic half-line heat equation with
Robin boundary gives an independent oracle for the first moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .model import ModelParams, ValidityError
from .moments import QuadratureSpec, _factored_operands, q_moment
from .partitions import Diagram, canonical_diagrams, partitions_of, substitution_steps
from .quadrature import Workspace, contract_factored, line_nodes
from .residues import DIFF, Factor, Monomial, ReducedIntegrand, build_phi, reduce_steps

ROBIN = "robin"
DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class KpzParams:
    """Boundary parameter, time and ordered spatial points for SHE moments."""

    t: float
    x: Tuple[float, ...]
    A: Optional[float] = None
    boundary: str = ROBIN

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if not self.x:
            raise ValidityError("x must hold at least one point")
        if not math.isfinite(self.t) or not all(map(math.isfinite, self.x)):
            raise ValidityError("t and every x must be finite")
        if self.A is not None and not math.isfinite(self.A):
            raise ValidityError("boundary parameter A must be finite")
        if self.t <= 0:
            raise ValidityError("t must be positive")
        if any(v < 0 for v in self.x) or any(b < a for a, b in zip(self.x, self.x[1:])):
            raise ValidityError("x must be weakly increasing and nonnegative")
        if self.boundary == ROBIN:
            if self.A is None or self.A <= 0:
                raise ValidityError("Robin moments need boundary parameter A > 0")
        elif self.boundary != DIRICHLET:
            raise ValidityError(f"unknown boundary kind {self.boundary}")
        elif self.A is not None:
            raise ValidityError("Dirichlet moments take no boundary parameter A")

    @property
    def n(self) -> int:
        return len(self.x)


# the line grids' tail cut (both forms), and the node spacing, in units of
# 1/sqrt(t), of an explicit ContourSpec and of the nested form where its
# offsets stay at 1.25 k; both forms' default grids are otherwise spaced by
# `_line_spacing`
TAIL_TOL = 1e-12
SPACING_FACTOR = 0.05
# the log of what the default nested form may lose to cancellation between
# its lines' Gaussians (`_cancellation`) when it widens its offsets past
# 1.25 k: three digits
NESTED_CANCELLATION = math.log(1e3)
# the most nodes `she_grids` lays on one line: an n = 2 call's one N x N
# buffer then stays within quadrature.MAX_WORKSPACE_BYTES, and an n = 1 call,
# which holds no such buffer, still gets a refusal before its grids
MAX_LINE_NODES = 2 ** 13


def _check_grid_rule(tail_tol: float, spacing_factor: Optional[float]):
    if not 0.0 < tail_tol < 1.0:
        raise ValidityError("tail_tol must lie in (0, 1)")
    if spacing_factor is not None and not 0.0 < spacing_factor < math.inf:
        raise ValidityError("spacing_factor must be positive and finite")


def she_grids(t: float, offsets: Sequence[float], reach: float, tail_tol: float,
              spacing: float) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Line nodes and weights, one grid per dimension at real part offsets[d].

    Every grid has node spacing `spacing` and half-height
    sqrt(reach^2 + 2 log(1e3 / tail_tol) / t), where |e^{t w^2 / 2}| at
    real part reach is tail_tol / 1e3; reach is the largest real part the
    integrand's Gaussian factors see.  Raises ValidityError, before any
    grid is built, for a tail_tol outside (0, 1), a spacing that is
    negative or not finite, or more than MAX_LINE_NODES nodes on a line
    (a spacing of 0 needs infinitely many).
    """
    _check_grid_rule(tail_tol, None)
    if not 0.0 <= spacing < math.inf:
        raise ValidityError(f"line spacing {spacing} is negative or not finite")
    y_max = math.sqrt(reach * reach + 2.0 * math.log(1e3 / tail_tol) / t)
    steps = y_max / spacing if spacing > 0.0 else math.inf
    if steps > MAX_LINE_NODES // 2:
        nodes = 2 * math.ceil(steps) if steps < math.inf else "infinitely many"
        raise ValidityError(f"t={t:g} needs {nodes} line nodes per dimension, above the "
                            f"cap of {MAX_LINE_NODES}")
    return [line_nodes(r, y_max, spacing, d) for d, r in enumerate(offsets)]


@dataclass(frozen=True)
class ContourSpec:
    """Vertical-line offsets and truncation for the nested integrals, spaced
    at spacing_factor / sqrt(t).  The nested form's default grid is not a
    ContourSpec (`_nested_grids`), except where its offsets stay at
    `default(n)`'s 1.25 k."""

    offsets: Tuple[float, ...]
    tail_tol: float = TAIL_TOL
    spacing_factor: float = SPACING_FACTOR

    def __post_init__(self):
        r = self.offsets
        if not all(map(math.isfinite, r)):
            raise ValidityError("contour offsets must be finite")
        _check_grid_rule(self.tail_tol, self.spacing_factor)
        if not r or r[0] != 0.0:
            raise ValidityError("first contour must sit on the imaginary axis")
        shifted = [rk - k for k, rk in enumerate(r)]
        if any(b <= a for a, b in zip(shifted, shifted[1:])):
            raise ValidityError("need r_k - r_{k-1} > 1 between consecutive contours")

    @classmethod
    def default(cls, n: int) -> "ContourSpec":
        return cls(tuple(1.25 * k for k in range(n)))


def _cancellation(t: float, reals: Sequence[float], n: int) -> float:
    """The log of the integrand's size over the moment's from its Gaussians:
    e^{t sum r^2 / 2} for kernels at real parts r over e^{t n (n^2-1) / 24}."""
    return t * (sum(r * r for r in reals) - n * (n * n - 1) / 12.0) / 2.0


def _line_spacing(kpz: KpzParams, reals: Sequence[float], d: float, tail_tol: float) -> float:
    """Both forms' node spacing h, from the nearest pole and the Gaussians' growth.

    The trapezoid error on a line falls like e^{-2 pi d / h} times the
    integrand's size on the strip of half-width d about it, d the distance
    to the nearest pole (Trefethen & Weideman, SIAM Rev. 56 (2014)).  reals
    are the real parts of the kernels e^{t w^2 / 2 - x w}: the residue
    form's shifts 0..n-1 on the axis, or the nested form's offsets.  d is
    capped at sqrt(2 budget / (t n)), past which the Gaussians' growth over
    the strip outruns the budget.  h solves 2 pi d / h = budget + growth:

    * budget is log(1e3 / tail_tol), plus `_cancellation`, plus
      sum x^2 / (2t), the log of the integrand's size over the moment's at
      small t;
    * growth is that of the kernels from their real parts r to the strip's
      edge, t sum (2 r d + d^2) / 2 + d sum x.
    """
    n, t, x = kpz.n, kpz.t, kpz.x
    budget = (math.log(1e3 / tail_tol) + _cancellation(t, reals, n)
              + sum(v * v for v in x) / (2.0 * t))
    d = min(d, math.sqrt(2.0 * budget / (t * n)))
    growth = t * (n * d * d + 2.0 * sum(reals) * d) / 2.0 + d * sum(x)
    return 2.0 * math.pi * d / (budget + growth)


def _nearest_pole(kpz: KpzParams, pair_distance: float) -> float:
    """d of `_line_spacing`: the pair poles' distance from the lines, or A,
    that of the Robin kernel's pole at w = -A from the axis, if nearer."""
    return min(pair_distance, kpz.A) if kpz.boundary == ROBIN else pair_distance


def _nested_lines(kpz: KpzParams) -> Optional[Tuple[Tuple[float, ...], float]]:
    """The default nested form's offsets delta k and d, the lines' distance
    to the nearest pole, or None where it keeps `ContourSpec.default`.

    A pair pole of the nested integrand lies delta - 1 from a line, so
    delta is the largest in [1.25, 1.5] whose `_cancellation` is at most
    NESTED_CANCELLATION; None where even 1.25 exceeds it (n = 4 from
    t ~ 0.8, n = 3 from t ~ 2.4, n = 2 from t ~ 13).  At n = 1 the
    integrand is the residue form's one term on the same line, so it takes
    that form's d.
    """
    n = kpz.n
    if n == 1:
        return (0.0,), _nearest_pole(kpz, 1.0)
    # at offsets delta k, `_cancellation` is its value at k plus (delta^2 - 1) t squares / 2
    squares = sum(k * k for k in range(n))
    spare = NESTED_CANCELLATION - _cancellation(kpz.t, range(n), n)
    widest = 1.0 + 2.0 * spare / (kpz.t * squares)
    if widest < 1.25 ** 2:
        return None
    delta = min(1.5, math.sqrt(widest))
    return tuple(delta * k for k in range(n)), _nearest_pole(kpz, delta - 1.0)


def _nested_grids(kpz: KpzParams, contours: Optional[ContourSpec] = None
                  ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The nested form's `she_grids`, cut for real parts up to its last
    offset: on contours' lines at their spacing_factor / sqrt(t), or by
    default on `_nested_lines` spaced by `_line_spacing`."""
    lines = _nested_lines(kpz) if contours is None else None
    if lines is None:
        contours = contours or ContourSpec.default(kpz.n)
        if len(contours.offsets) != kpz.n:
            raise ValidityError("need one contour offset per point")
        offsets, tail_tol = contours.offsets, contours.tail_tol
        spacing = contours.spacing_factor / math.sqrt(kpz.t)
    else:
        (offsets, d), tail_tol = lines, TAIL_TOL
        spacing = _line_spacing(kpz, offsets, d, tail_tol)
    return she_grids(kpz.t, offsets, max(offsets), tail_tol, spacing)


def _kernel(w, x: float, t: float, A: Optional[float], boundary: str):
    base = np.exp(t * w * w / 2.0 - x * w)
    if boundary == ROBIN:
        return base * w / (A + w)
    return base * w


def _prefactor(kpz: KpzParams) -> float:
    return (2.0 if kpz.boundary == ROBIN else 4.0) ** kpz.n


def _she_value(kpz: KpzParams, form: str, grids: Sequence[Tuple[np.ndarray, np.ndarray]],
               terms: Iterable[ReducedIntegrand]) -> float:
    """_prefactor(kpz) times the sum of the reduced integrands read on grids.

    Every term is built (`moments._factored_operands`), contracted and
    dropped in the call's one `_LineValues`, sized for an n-dimensional
    term: at n = 3 the call holds four N x N arrays and no term allocates
    one.  Its memo holds the kernels and factor values the terms share.

    Both SHE forms' one refusal tail: ValidityError for n > 4 before a term
    is reduced, and 0.0 at a Dirichlet wall, where Z(t, 0) = 0.  Z(t, x) > 0
    elsewhere, so a value that is not finite or not positive has lost its
    digits to cancellation or overflow (for the nested form at n = 3 from
    near t = 20): ArithmeticError.
    """
    if kpz.n > 4:
        raise ValidityError(f"{form} evaluation supported for n <= 4")
    if kpz.boundary == DIRICHLET and kpz.x[0] == 0.0:
        return 0.0
    workspace, n_nodes, total = _LineValues(kpz, grids), len(grids[0][0]), 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports them
        for reduced in terms:
            n_dims = len(reduced.free_vars)
            _, vectors, pairs, scalar, _ = _factored_operands(reduced, workspace, n_nodes)
            matrices = workspace.term(n_dims, pairs)
            total += contract_factored(n_dims, vectors, matrices, scalar, workspace).real
    value = float(_prefactor(kpz) * total)
    if not (math.isfinite(value) and value > 0):
        raise ArithmeticError(f"the {form} form gives {value:.3e} at t={kpz.t:g} for a "
                              "moment that is positive; use a smaller t")
    return value


def she_moment_nested(kpz: KpzParams, contours: Optional[ContourSpec] = None) -> float:
    """Mixed moment E[prod Z(t, x_i)] as a nested vertical-line integral.

    2^n (Robin) or 4^n (Dirichlet) times the integral over lines
    Re w_k = r_k of prod_{i<j} (w_i-w_j)/(w_i-w_j+1) (w_i+w_j)/(w_i+w_j-1)
    prod_i e^{t w_i^2/2 - x_i w_i} k(w_i), the unreduced integrand that the
    residue expansion starts from.  By default (`_nested_grids`) the lines
    sit at r_k = delta k with delta up to 1.5 (`_nested_lines`), so each
    pair pole is delta - 1 from a line, and are spaced by that distance and
    the Gaussians' growth (`_line_spacing`): at n = 3 and t in [0.5, 1],
    delta = 1.5 and 242-328 nodes per dimension, where 1.25 k on
    0.05 / sqrt(t) laid 340-348.  Where delta = 1.25 would already cost
    more than NESTED_CANCELLATION, and for explicit contours, the lines
    are spaced at spacing_factor / sqrt(t).  A grid above
    MAX_LINE_NODES raises ValidityError before it is built.  Refusals and
    the Dirichlet wall's 0.0 come from the tail it shares with the residue
    form (`_she_value`).
    """
    n = kpz.n
    grids = _nested_grids(kpz, contours)
    unreduced = ReducedIntegrand(tuple(build_phi(range(n))), tuple(range(1, n + 1)))
    return _she_value(kpz, "nested", grids, [unreduced])


# ---------------------------------------------------------------------------
# residue expansion: the lattice reduction read additively

def _affine(m: Monomial) -> Tuple[int, int]:
    """(sign, shift) of q^e z^s read as s w + e + [s < 0]."""
    return m.vpow, m.qexp + (m.vpow < 0)


def _reduce_additive(diagram: Diagram, phi: Sequence[Factor]) -> ReducedIntegrand:
    """phi reduced along the diagram's substitutions, to be read additively."""
    return reduce_steps(phi, substitution_steps(diagram), diagram.pivots)


class _LineValues(Workspace):
    """The line reading of `moments._factored_operands`, and the `Workspace`
    of one SHE call: dimension d integrates on grids[d], all of length N.

    A monomial reads as its affine form L (`_affine`) and an F-factor as the
    SHE kernel at kpz.x[site], kept in the memo.  A pair factor reads
    (L_A - L_B)^power (DIFF) or (L_A + L_B - 1)^power (PROD), with no scale:
    s_a w_a + sign s_b w_b is s_a (w_a + w_b), Hankel, or s_a (w_a - w_b),
    Toeplitz.  A prefactor monomial reads -1, since a consumed
    1/(L_A + L_B - 1) has limit +1 where 1/(1 - A B) has -1/A.
    """

    def __init__(self, kpz: KpzParams, grids: Sequence[Tuple[np.ndarray, np.ndarray]]):
        super().__init__([(kpz.n, len(grids[0][0]))])
        self.kpz, self.grids = kpz, grids

    def grid(self, n_nodes: int, d: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.grids[d]

    def prefactor(self, m: Monomial, n_nodes: int, d: int) -> float:
        return -1.0

    def kernel(self, f: Factor, n_nodes: int, d: int):
        kpz, (sign, shift) = self.kpz, _affine(f.a)
        kernel = self.get(("kernel", d, sign, shift, f.site),
                          lambda: _kernel(sign * self.grids[d][0] + shift, kpz.x[f.site], kpz.t,
                                          kpz.A, kpz.boundary))
        return kernel, None, None

    def single(self, f: Factor, n_nodes: int, d: int) -> np.ndarray:
        (sign_a, shift_a), (sign_b, shift_b) = _affine(f.a), _affine(f.b)
        sign, shift = (-1, 0) if f.kind == DIFF else (1, -1)
        w = self.grids[d][0]
        arg = sign_a * w + shift_a + sign * (sign_b * w + shift_b) + shift
        return arg if f.power == 1 else 1.0 / arg

    def scale(self, f: Factor, n_nodes: int, d: int) -> None:
        return None

    def pair(self, f: Factor, n_nodes: int, da: int, db: int, ka: np.ndarray,
             kb: np.ndarray) -> np.ndarray:
        (sign_a, shift_a), (_, shift_b) = _affine(f.a), _affine(f.b)
        sign, shift = (-1, 0) if f.kind == DIFF else (1, -1)
        wa, wb = self.grids[da][0][ka], self.grids[db][0][kb]
        return sign_a * (wa + wb if f.hankel else wa - wb) + (shift_a + sign * shift_b + shift)


def _residue_grids(kpz: KpzParams, tail_tol: float = TAIL_TOL,
                   spacing_factor: Optional[float] = None) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The residue form's `she_grids`: on the axis, cut for real parts up to
    n - 1, which the additive shifts reach, and spaced by `_line_spacing`
    or, given a spacing_factor, by spacing_factor / sqrt(t).

    On the axis every pair or single-variable pole of a reduced term lies at
    least 1 away, and the Robin kernel's at A + e for its shift e >= 0; the
    worst variable carries n kernels at shifts 0..n-1, and the largest term
    has those shifts (tests/test_kpz.py walks every term for n <= 3).  So
    the rule reads reals 0..n-1 and d = min(1, A), or 1 for Dirichlet.
    """
    _check_grid_rule(tail_tol, spacing_factor)
    if spacing_factor is None:
        spacing = _line_spacing(kpz, range(kpz.n), _nearest_pole(kpz, 1.0), tail_tol)
    else:
        spacing = spacing_factor / math.sqrt(kpz.t)
    return she_grids(kpz.t, (0.0,) * kpz.n, kpz.n - 1.0, tail_tol, spacing)


def she_moment_residue_form(kpz: KpzParams, tail_tol: float = TAIL_TOL,
                            spacing_factor: Optional[float] = None) -> float:
    """Robin or Dirichlet moment as the diagram-indexed residue expansion on the axis.

    The nested form's prefactor, 2^n (Robin) or 4^n (Dirichlet), times the
    sum over partitions and canonical diagrams of the reduced integrands
    over one imaginary-axis contour per surviving variable; equals the
    nested form.  The grids (`_residue_grids`) are spaced by the nearest
    pole and the Gaussians' growth (`_line_spacing`): at n = 3 and t in
    [0.5, 1], 116-164 nodes per dimension for A >= 1 or Dirichlet and
    214-308 for A = 0.5, more as t -> 0.  An explicit spacing_factor spaces
    them at spacing_factor / sqrt(t), as an explicit ContourSpec does the
    nested form's.  A grid above
    MAX_LINE_NODES raises ValidityError before it is built.  Refusals and
    the Dirichlet wall's 0.0 come from the tail it shares with the nested
    form (`_she_value`).
    """
    n = kpz.n
    grids = _residue_grids(kpz, tail_tol, spacing_factor)
    phi = build_phi(range(n))
    terms = (_reduce_additive(diagram, phi)
             for lam in partitions_of(n) for diagram in canonical_diagrams(lam))
    return _she_value(kpz, "residue", grids, terms)


# ---------------------------------------------------------------------------
# weak-asymmetry bridge

# the largest quadrature error, relative to the lattice moment, the bridge returns
BRIDGE_QUAD_BUDGET = 1e-6


def scaled_asep_moment(eps: float, kpz: KpzParams,
                       quad: Optional[QuadratureSpec] = None) -> float:
    """Lattice moment under weak-asymmetry scaling, exact at fixed epsilon.

    Jump rates e^{+-sqrt(eps)}/2, time t/eps^2, sites round(x/eps), density
    1/2 + sqrt(eps)(1/4 + A/2) for Robin or 1 for Dirichlet.  The value is
    eps^{-n/2} (Robin) or eps^{-n} (Dirichlet) times the scaled-kernel
    lattice moment, and converges to the matching SHE moment.  `quad`
    defaults to 512 nodes in one dimension (`QuadratureSpec.with_1d_nodes`).

    Raises ArithmeticError unless the lattice moment is positive and its
    quadrature error is at most BRIDGE_QUAD_BUDGET of it: at A = 1, t = 1,
    x = 0.5 the default grid meets that down to eps ~ 1e-4, and below it
    the returned value would be wrong without a sign of it.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValidityError("eps must be finite and positive")
    n = kpz.n
    sq = math.sqrt(eps)
    if kpz.boundary == ROBIN:
        rho = 0.5 + sq * (0.25 + kpz.A / 2.0)
        power = -n / 2.0
    else:
        rho = 1.0
        power = -float(n)
    if rho > 1:
        raise ValidityError(f"eps={eps} pushes the boundary density above 1")
    params = ModelParams.from_density(0.5 * math.exp(sq), 0.5 * math.exp(-sq), rho)
    if not params.formula_ok():
        raise ValidityError(f"eps={eps} leaves the formula's validity region")
    sites = [round(v / eps) for v in kpz.x]
    if any(b <= a for a, b in zip(sites, sites[1:])):
        raise ValidityError(f"scaled sites {sites} collide; decrease eps or separate x")
    t_scaled = kpz.t / eps ** 2
    quad = quad or QuadratureSpec.with_1d_nodes(512)
    res = q_moment(t_scaled, sites, params, quad, kernel="scaled")
    if not (res.value > 0 and res.quad_error <= BRIDGE_QUAD_BUDGET * res.value):
        raise ArithmeticError(f"eps={eps}: lattice moment {res.value:.3e} with quadrature "
                              f"error {res.quad_error:.1e} is not positive within "
                              f"{BRIDGE_QUAD_BUDGET:g} relative error; use a larger eps "
                              "or a finer quad")
    return float(eps ** power * res.value)


# ---------------------------------------------------------------------------
# Robin heat-kernel oracle

@dataclass
class PdeOracleResult:
    value: float
    grid_error: float
    mass: float


def _robin_heat_profile(A: float, t: float, length: float, dx: float, dt: float,
                        sigma: float):
    """Crank-Nicolson solve of u_t = u_xx / 2, u_x(0) = A u(0), u(0) ~ delta.

    Initial data is the half-normal density of width sigma placed at the
    wall, discretized by exact cell averages.
    """
    # scipy loads at the first oracle call, not with asep_lab (tests/test_imports.py)
    from scipy import sparse
    from scipy.sparse.linalg import splu
    from scipy.special import erf
    J = int(round(length / dx))
    x = np.arange(J) * dx
    edges = np.concatenate([[0.0], x[:-1] + dx / 2.0, [x[-1] + dx / 2.0]])
    cdf = erf(edges / (sigma * math.sqrt(2.0)))
    u = (cdf[1:] - cdf[:-1]) / dx  # cell averages; unit mass on the half line
    u[0] *= 2.0  # the wall cell is half-width, so its density doubles
    main = np.full(J, -2.0)
    main[0] = -2.0 - 2.0 * dx * A  # ghost-node Robin closure, second order
    lower = np.ones(J - 1)
    upper = np.ones(J - 1)
    upper[0] = 2.0
    lap = sparse.diags([lower, main, upper], [-1, 0, 1], format="csc") / dx ** 2
    eye = sparse.identity(J, format="csc")
    steps = int(round(t / dt))
    # Rannacher startup: the first two trapezoid steps run as four damped
    # backward-Euler half-steps, which suppresses the oscillatory response
    # of Crank-Nicolson to the nearly-singular initial data; a damped
    # half-step and a trapezoid step share the matrix eye - dt/4 lap
    lhs = splu((eye - (dt / 4.0) * lap).tocsc())
    for _ in range(4):
        u = lhs.solve(u)
    rhs = (eye + (dt / 4.0) * lap).tocsr()
    for _ in range(max(steps - 2, 0)):
        u = lhs.solve(rhs @ u)
    return x, u


# the oracle's cell width and time step (Courant number dt / dx = 1), and the
# width of its widest half-normal initial profile
_PDE_DX = 2e-3
_PDE_DT = 2e-3
_PDE_SIGMA = 3.2e-2


def robin_pde_first_moment(A: float, t: float, x: float) -> PdeOracleResult:
    """First-moment oracle at (t, x) by implicit finite differences.

    The half-normal's center of mass sits at 0.8 sigma, which biases a
    Robin solution at first order in the width, so the delta limit is taken
    by quadratic Richardson extrapolation over widths sigma, sigma/2,
    sigma/4.  grid_error is the difference against the half-resolution
    grid; mass is the trapezoid integral of the widest profile (conserved
    only for A = 0).
    """
    if t <= 0 or x < 0:
        raise ValidityError("need t > 0 and x >= 0")
    length = x + 8.0 * math.sqrt(t) + 1.0

    def delta_limit(h, step):
        vals = []
        for width in (_PDE_SIGMA, _PDE_SIGMA / 2.0, _PDE_SIGMA / 4.0):
            xs, u = _robin_heat_profile(A, t, length, h, step, width)
            vals.append(float(np.interp(x, xs, u)))
        return (8.0 * vals[2] - 6.0 * vals[1] + vals[0]) / 3.0

    coarse = delta_limit(_PDE_DX, _PDE_DT)
    value = delta_limit(_PDE_DX / 2.0, _PDE_DT / 2.0)
    xs, u = _robin_heat_profile(A, t, length, _PDE_DX, _PDE_DT, _PDE_SIGMA)
    mass = float(np.trapezoid(u, xs))
    return PdeOracleResult(value=value, grid_error=abs(value - coarse), mass=mass)


def robin_halfline_first_moment_exact(A: float, t: float, x: float) -> float:
    """Closed form 2 phi_t(x) - 2A e^{Ax + A^2 t/2} Phi-bar((x + At)/sqrt(t)).

    Image-kernel solution of the same Robin problem with a true delta;
    used to validate the finite-difference oracle in tests.
    """
    phi = math.exp(-x * x / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    z = (x + A * t) / math.sqrt(t)
    tail = 0.5 * math.erfc(z / math.sqrt(2.0))
    return 2.0 * phi - 2.0 * A * math.exp(A * x + A * A * t / 2.0) * tail

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
from .moments import QuadratureSpec, q_moment
from .partitions import Diagram, canonical_diagrams, partitions_of, substitution_steps
from .quadrature import GridValues, PairProducts, Workspace, contract_factored, line_nodes
from .residues import (DIFF, F_OVER_Z, Factor, Monomial, ReducedIntegrand, build_phi,
                       reduce_steps)

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


# defaults of both SHE forms' line grids (`she_grids`)
TAIL_TOL = 1e-12
SPACING_FACTOR = 0.05


def _check_grid_rule(tail_tol: float, spacing_factor: float):
    if not 0.0 < tail_tol < 1.0:
        raise ValidityError("tail_tol must lie in (0, 1)")
    if not 0.0 < spacing_factor < math.inf:
        raise ValidityError("spacing_factor must be positive and finite")


def she_grids(t: float, offsets: Sequence[float], reach: float, tail_tol: float,
              spacing_factor: float) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Line nodes and weights, one grid per dimension at real part offsets[d].

    Every grid has spacing spacing_factor / sqrt(t) and half-height
    sqrt(reach^2 + 2 log(1e3 / tail_tol) / t), where |e^{t w^2 / 2}| at
    real part reach is tail_tol / 1e3; reach is the largest real part the
    integrand's Gaussian factors see.  Raises ValidityError for a tail_tol
    outside (0, 1) or a spacing_factor that is not positive and finite.
    """
    _check_grid_rule(tail_tol, spacing_factor)
    h = spacing_factor / math.sqrt(t)
    y_max = math.sqrt(reach * reach + 2.0 * math.log(1e3 / tail_tol) / t)
    return [line_nodes(r, y_max, h, d) for d, r in enumerate(offsets)]


@dataclass(frozen=True)
class ContourSpec:
    """Vertical-line offsets and truncation for the nested integrals."""

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


def _kernel(w, x: float, t: float, A: Optional[float], boundary: str):
    base = np.exp(t * w * w / 2.0 - x * w)
    if boundary == ROBIN:
        return base * w / (A + w)
    return base * w


def _prefactor(kpz: KpzParams) -> float:
    return (2.0 if kpz.boundary == ROBIN else 4.0) ** kpz.n


def _she_value(kpz: KpzParams, form: str, grids: Sequence[Tuple[np.ndarray, np.ndarray]],
               terms: Iterable[Tuple[int, ReducedIntegrand]]) -> float:
    """_prefactor(kpz) times the sum of sign times each reduced integrand on grids.

    Every term is built, contracted and dropped in one `quadrature.Workspace`
    for the call, sized for an n-dimensional term: at n = 3 the call holds
    four N x N arrays and no term allocates one.  The terms' F-kernels and
    factor values on the line grids come from one memo for the call
    (`_line_operands`), since the diagrams of the residue form share most
    of them.

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
    workspace = Workspace([(kpz.n, len(grids[0][0]))])
    values = GridValues()
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports them
        for sign, reduced in terms:
            n_dims = len(reduced.free_vars)
            vectors, pairs = _line_operands(reduced, kpz, grids, values)
            matrices, spares = workspace.term(n_dims, pairs)
            total += contract_factored(n_dims, vectors, matrices, complex(sign), spares).real
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
    residue expansion starts from.  Refusals and the Dirichlet wall's 0.0
    come from the tail it shares with the residue form (`_she_value`).
    """
    n = kpz.n
    contours = contours or ContourSpec.default(n)
    if len(contours.offsets) != n:
        raise ValidityError("need one contour offset per point")
    grids = she_grids(kpz.t, contours.offsets, max(contours.offsets), contours.tail_tol,
                      contours.spacing_factor)
    unreduced = ReducedIntegrand(tuple(build_phi(range(n))), tuple(range(1, n + 1)))
    return _she_value(kpz, "nested", grids, [(1, unreduced)])


# ---------------------------------------------------------------------------
# residue expansion: the lattice reduction read additively

def _affine(m: Monomial) -> Tuple[int, int]:
    """(sign, shift) of q^e z^s read as s w + e + [s < 0]."""
    return m.vpow, m.qexp + (m.vpow < 0)


def _reduce_additive(diagram: Diagram, phi: Sequence[Factor]) -> ReducedIntegrand:
    """phi reduced along the diagram's substitutions, to be read additively."""
    return reduce_steps(phi, substitution_steps(diagram), diagram.pivots)


def _line_operands(reduced: ReducedIntegrand, kpz: KpzParams,
                   grids: Sequence[Tuple[np.ndarray, np.ndarray]], values: GridValues):
    """Per-dimension vectors and pair products of a lattice integrand read additively.

    The k-th free variable is integrated on the line nodes and weights
    grids[k].  F-factors become the SHE kernel at kpz.x[site], and a pair
    factor whose slots share one variable scales that variable's vector;
    the others are evaluated on the 2N - 1 entries of a `PairProducts`, for
    the caller to write out as N x N matrices.  A pair factor reads
    (L_A - L_B)^power (DIFF) or (L_A + L_B - 1)^power (PROD) for the affine
    forms L of its slots; the prefactor monomials have no additive reading.
    Each kernel and factor value is computed once per call: values keys it
    by its dimensions and its slots' affine forms.
    """
    dims = {v: d for d, v in enumerate(reduced.free_vars)}
    vectors = {d: grids[d][1] for d in dims.values()}
    pairs = PairProducts(len(grids[0][0]))
    for f in reduced.factors:
        d = dims[f.a.var]
        sign_a, shift_a = _affine(f.a)
        if f.kind == F_OVER_Z:
            kernel = values.get(
                ("kernel", d, sign_a, shift_a, f.site),
                lambda: _kernel(sign_a * grids[d][0] + shift_a, kpz.x[f.site], kpz.t, kpz.A,
                                kpz.boundary))
            vectors[d] = vectors[d] * kernel
            continue
        sign, shift = (-1, 0) if f.kind == DIFF else (1, -1)
        sign_b, shift_b = _affine(f.b)
        if f.b.var == f.a.var:

            def single():
                w = grids[d][0]
                arg = sign_a * w + shift_a + sign * (sign_b * w + shift_b) + shift
                return arg if f.power == 1 else 1.0 / arg
            vectors[d] = vectors[d] * values.get(
                ("factor", d, f.kind, f.power, sign_a, shift_a, sign_b, shift_b), single)
            continue
        # s_a w_a + sign s_b w_b is s_a (w_a + w_b), Hankel, or s_a (w_a - w_b), Toeplitz
        db = dims[f.b.var]
        hankel = f.hankel

        def pair_values():
            ka, kb = pairs.entries(d, db, hankel)
            wa, wb = grids[d][0][ka], grids[db][0][kb]
            return sign_a * (wa + wb if hankel else wa - wb) + (shift_a + sign * shift_b + shift)
        arg = values.get(("pair", d, db, f.kind, sign_a, shift_a, sign_b, shift_b), pair_values)
        pairs.multiply(d, db, hankel, arg, f.power)
    return vectors, pairs


def she_moment_residue_form(kpz: KpzParams, tail_tol: float = TAIL_TOL,
                            spacing_factor: float = SPACING_FACTOR) -> float:
    """Robin or Dirichlet moment as the diagram-indexed residue expansion on the axis.

    The nested form's prefactor, 2^n (Robin) or 4^n (Dirichlet), times the
    sum over partitions and canonical diagrams of the reduced integrands
    over one imaginary-axis contour per surviving variable; equals the
    nested form.  The grids are `she_grids` on the axis, cut for real parts
    up to n - 1, which the additive shifts reach.  Refusals and the
    Dirichlet wall's 0.0 come from the tail it shares with the nested form
    (`_she_value`).
    """
    n = kpz.n
    grids = she_grids(kpz.t, (0.0,) * n, n - 1.0, tail_tol, spacing_factor)
    phi = build_phi(range(n))
    reduced = (_reduce_additive(diagram, phi)
               for lam in partitions_of(n) for diagram in canonical_diagrams(lam))
    # a consumed 1/(w + w' - 1) has limit +1 where 1/(1 - M M') has -1/M
    terms = ((r.sign * (-1) ** len(r.prefactor_monos), r) for r in reduced)
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

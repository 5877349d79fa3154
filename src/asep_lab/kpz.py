"""Moments of the half-line stochastic heat equation and the ASEP bridge.

Three routes to the same numbers:

* nested vertical-line integrals with ordered real parts (Robin kernel
  w/(A+w), Dirichlet kernel w);
* a residue expansion over the same valley diagrams as the lattice
  moments, with additive substitutions w -> w + 1 (plus arrows) and
  w -> 1 - w (minus arrows), all contours on the imaginary axis;
* the weak-asymmetry-scaled lattice moment, which converges to the
  continuum value as the asymmetry epsilon goes to zero.

A Crank-Nicolson solve of the deterministic half-line heat equation with
Robin boundary gives an independent oracle for the first moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu
from scipy.special import erf

from .model import ModelParams, ValidityError
from .moments import QuadratureSpec, q_moment
from .partitions import Diagram, canonical_diagrams, partitions_of, substitution_steps
from .quadrature import PairFactor, contract_factored, line_nodes, line_pair_operands

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

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class ContourSpec:
    """Vertical-line offsets and truncation for the nested integrals."""

    offsets: Tuple[float, ...]
    tail_tol: float = 1e-12
    spacing_factor: float = 0.05

    def __post_init__(self):
        r = self.offsets
        if not all(map(math.isfinite, r)):
            raise ValidityError("contour offsets must be finite")
        if not 0.0 < self.tail_tol < 1.0:
            raise ValidityError("tail_tol must lie in (0, 1)")
        if not 0.0 < self.spacing_factor < math.inf:
            raise ValidityError("spacing_factor must be positive and finite")
        if not r or r[0] != 0.0:
            raise ValidityError("first contour must sit on the imaginary axis")
        shifted = [rk - k for k, rk in enumerate(r)]
        if any(b <= a for a, b in zip(shifted, shifted[1:])):
            raise ValidityError("need r_k - r_{k-1} > 1 between consecutive contours")

    @classmethod
    def default(cls, n: int, gap: float = 1.25) -> "ContourSpec":
        return cls(tuple(gap * k for k in range(n)))


def _kernel(w, x: float, t: float, A: Optional[float], boundary: str):
    base = np.exp(t * w * w / 2.0 - x * w)
    if boundary == ROBIN:
        return base * w / (A + w)
    return base * w


def _half_height(t: float, r: float, tail_tol: float) -> float:
    return math.sqrt(r * r + 2.0 * math.log(1e3 / tail_tol) / t)


def she_moment_nested(kpz: KpzParams, contours: Optional[ContourSpec] = None) -> float:
    """Mixed moment E[prod Z(t, x_i)] as a nested vertical-line integral.

    2^n (Robin) or 4^n (Dirichlet) times the integral over lines
    Re w_k = r_k of prod_{i<j} (w_i-w_j)/(w_i-w_j+1) (w_i+w_j)/(w_i+w_j-1)
    prod_i e^{t w_i^2/2 - x_i w_i} k(w_i), the unreduced integrand that the
    residue expansion starts from.
    """
    n = kpz.n
    if n > 4:
        raise ValidityError("nested evaluation supported for n <= 4")
    contours = contours or ContourSpec.default(n)
    if len(contours.offsets) != n:
        raise ValidityError("need one contour offset per point")
    h = contours.spacing_factor / math.sqrt(kpz.t)
    y_max = _half_height(kpz.t, max(contours.offsets), contours.tail_tol)
    grids = [line_nodes(r, y_max, h, d) for d, r in enumerate(contours.offsets)]
    vectors, matrices = _line_operands(_build_additive(kpz), kpz,
                                       {i + 1: i for i in range(n)}, grids)
    pref = (2.0 if kpz.boundary == ROBIN else 4.0) ** n
    val = contract_factored(n, vectors, matrices, pref)
    return float(val.real)


# ---------------------------------------------------------------------------
# additive residue expansion

@dataclass(frozen=True)
class AffineForm:
    """sign * w_var + shift with sign in {-1, +1} and integer shift."""

    sign: int
    shift: int
    var: int

    def subst(self, var: int, target: "AffineForm") -> "AffineForm":
        if self.var != var:
            return self
        return AffineForm(self.sign * target.sign, self.shift + self.sign * target.shift,
                          target.var)


ADIFF = "adiff"          # L - L'
INV_DIFF1 = "inv_diff1"  # 1/(L - L' + 1)
ASUM = "asum"            # L + L'
INV_SUM1 = "inv_sum1"    # 1/(L + L' - 1)
AKERNEL = "akernel"      # e^{t L^2/2 - x L} k(L)

# pair kind -> (sign of L', shift, power): the factor is (L + sign L' + shift)^power
_PAIR_TERMS = {ADIFF: (-1, 0, 1), INV_DIFF1: (-1, 1, -1),
               ASUM: (1, 0, 1), INV_SUM1: (1, -1, -1)}


@dataclass(frozen=True)
class AFactor:
    kind: str
    a: AffineForm
    b: Optional[AffineForm] = None
    x: float = 0.0

    def subst(self, var: int, target: AffineForm) -> "AFactor":
        new_a = self.a.subst(var, target)
        new_b = self.b.subst(var, target) if self.b is not None else None
        if new_a is self.a and new_b is self.b:
            return self
        return replace(self, a=new_a, b=new_b)

    def vars(self) -> Tuple[int, ...]:
        vs = [self.a.var]
        if self.b is not None and self.b.var not in vs:
            vs.append(self.b.var)
        return tuple(vs)

    def identically_singular(self) -> bool:
        if self.kind == INV_DIFF1:
            return (self.a.var == self.b.var and self.a.sign == self.b.sign
                    and self.a.shift - self.b.shift + 1 == 0)
        if self.kind == INV_SUM1:
            return (self.a.var == self.b.var and self.a.sign + self.b.sign == 0
                    and self.a.shift + self.b.shift == 1)
        return False


def _build_additive(kpz: KpzParams) -> List[AFactor]:
    n = kpz.n
    w = [AffineForm(1, 0, i) for i in range(n + 1)]  # 1-based labels
    out: List[AFactor] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(AFactor(ADIFF, w[i], w[j]))
            out.append(AFactor(INV_DIFF1, w[i], w[j]))
            out.append(AFactor(ASUM, w[i], w[j]))
            out.append(AFactor(INV_SUM1, w[i], w[j]))
    for i in range(1, n + 1):
        out.append(AFactor(AKERNEL, w[i], x=kpz.x[i - 1]))
    return out


def _additive_steps(diagram: Diagram) -> List[Tuple[int, AffineForm]]:
    """Multiplicative targets q^e z^{+1} map to w + e, and 1/z to 1 - w."""
    steps = []
    for var, (qe, pivot, vpow) in substitution_steps(diagram):
        if vpow == 1:
            steps.append((var, AffineForm(1, qe, pivot)))
        else:
            steps.append((var, AffineForm(-1, qe + 1, pivot)))
    return steps


def _reduce_additive(factors: Sequence[AFactor], diagram: Diagram):
    """Sequential residues: -1 limit per consumed 1/(w_i - w_j + 1), +1 per
    consumed 1/(w_i + w_j - 1); exactly one singular factor per step."""
    live = list(factors)
    sign = 1
    for var, target in _additive_steps(diagram):
        substituted, singular = [], []
        for f in live:
            g = f.subst(var, target)
            if g.identically_singular():
                singular.append(f)
            else:
                substituted.append(g)
        if len(singular) != 1:
            raise RuntimeError(f"additive step w_{var} -> {target} hit "
                               f"{len(singular)} singular factors")
        s = singular[0]
        holder = s.a if s.a.var == var else s.b
        if holder.var != var or holder.sign != 1 or holder.shift != 0:
            raise RuntimeError(f"consumed variable not pristine in {s}")
        sign *= -1 if s.kind == INV_DIFF1 else 1
        live = substituted
    return live, sign, diagram.pivots


def _afactor_value(f: AFactor, kpz: KpzParams, w):
    """A factor of one variable on that variable's nodes w."""
    a = f.a.sign * w + f.a.shift
    if f.kind == AKERNEL:
        return _kernel(a, f.x, kpz.t, kpz.A, kpz.boundary)
    sign, shift, power = _PAIR_TERMS[f.kind]
    arg = a + sign * (f.b.sign * w + f.b.shift) + shift
    return arg if power == 1 else 1.0 / arg


def _line_operands(factors: Sequence[AFactor], kpz: KpzParams, dims: Dict[int, int],
                   grids: Sequence[Tuple[np.ndarray, np.ndarray]]):
    """Per-dimension vectors and pair matrices of a product of factors.

    dims maps each variable to its dimension d, integrated on the line
    nodes and weights grids[d]; factors of two variables become pair
    matrices through `line_pair_operands`, the others scale the vectors.
    """
    vectors = {d: grids[d][1] for d in dims.values()}
    pairs = []
    for f in factors:
        fvars = f.vars()
        if len(fvars) == 1:
            d = dims[fvars[0]]
            vectors[d] = vectors[d] * _afactor_value(f, kpz, grids[d][0])
        else:
            sign, shift, power = _PAIR_TERMS[f.kind]
            pairs.append(PairFactor(dims[f.a.var], dims[f.b.var], f.a.sign, sign * f.b.sign,
                                    f.a.shift + sign * f.b.shift + shift, power))
    nodes = [grids[d][0] for d in range(len(dims))]
    return vectors, line_pair_operands(nodes, pairs)


def she_moment_residue_form(kpz: KpzParams, tail_tol: float = 1e-12,
                            spacing_factor: float = 0.05) -> float:
    """Robin moment as the diagram-indexed residue expansion on the axis.

    2^n sum over partitions and canonical diagrams of the reduced
    integrands over one imaginary-axis contour per surviving variable;
    equals the nested form for A > 0.
    """
    if kpz.boundary != ROBIN:
        raise ValidityError("residue expansion implemented for the Robin kernel")
    n = kpz.n
    if n > 4:
        raise ValidityError("residue evaluation supported for n <= 4")
    h = spacing_factor / math.sqrt(kpz.t)
    y_max = _half_height(kpz.t, n - 1.0, tail_tol)
    grids = [line_nodes(0.0, y_max, h, d) for d in range(n)]
    base = _build_additive(kpz)
    total = 0.0
    for lam in partitions_of(n):
        for diagram in canonical_diagrams(lam):
            live, sign, free = _reduce_additive(base, diagram)
            dims = {v: d for d, v in enumerate(free)}
            vectors, matrices = _line_operands(live, kpz, dims, grids)
            total += contract_factored(len(free), vectors, matrices, complex(sign)).real
    return float(2.0 ** n * total)


# ---------------------------------------------------------------------------
# weak-asymmetry bridge

def scaled_asep_moment(eps: float, kpz: KpzParams,
                       quad: Optional[QuadratureSpec] = None,
                       nodes_1d: int = 512) -> float:
    """Lattice moment under weak-asymmetry scaling, exact at fixed epsilon.

    Jump rates e^{+-sqrt(eps)}/2, time t/eps^2, sites round(x/eps), density
    1/2 + sqrt(eps)(1/4 + A/2) for Robin or 1 for Dirichlet.  The value is
    eps^{-n/2} (Robin) or eps^{-n} (Dirichlet) times the scaled-kernel
    lattice moment, and converges to the matching SHE moment.
    """
    if eps <= 0:
        raise ValidityError("eps must be positive")
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
    quad = quad or QuadratureSpec.with_1d_nodes(nodes_1d)
    res = q_moment(t_scaled, sites, params, quad, kernel="scaled")
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
    # of Crank-Nicolson to the nearly-singular initial data
    be = splu((eye - (dt / 4.0) * lap).tocsc())
    for _ in range(4):
        u = be.solve(u)
    lhs = splu((eye - (dt / 4.0) * lap).tocsc())
    rhs = (eye + (dt / 4.0) * lap).tocsr()
    for _ in range(max(steps - 2, 0)):
        u = lhs.solve(rhs @ u)
    return x, u


def robin_pde_first_moment(A: float, t: float, x: float, dx: float = 2e-3,
                           courant: float = 1.0, sigma: float = 3.2e-2) -> PdeOracleResult:
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
    dt = courant * dx

    def delta_limit(h, step):
        vals = []
        for width in (sigma, sigma / 2.0, sigma / 4.0):
            xs, u = _robin_heat_profile(A, t, length, h, step, width)
            vals.append(float(np.interp(x, xs, u)))
        return (8.0 * vals[2] - 6.0 * vals[1] + vals[0]) / 3.0

    coarse = delta_limit(dx, dt)
    value = delta_limit(dx / 2.0, dt / 2.0)
    xs, u = _robin_heat_profile(A, t, length, dx, dt, sigma)
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

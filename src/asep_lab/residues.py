"""The one residue reduction, for the lattice q-moments and the SHE moments.

The integrand for the n-point q-moment is a product of atomic factors:

    q^{n(n-1)/2} * prod_{i<j} (z_i-z_j)/(q z_i-z_j) * (1-q z_i z_j)/(1-z_i z_j)
                 * prod_j F_{x_j}(z_j)/z_j

with each q inside a monomial (`build_phi`), so that a pair factor is
(A - B)^{+-1} or (1 - A B)^{+-1}.

Residues are never taken by numerical micro-contours.  A diagram's
substitutions are applied sequentially; at each step exactly one factor
becomes identically singular and the pair (z_a - pole) * factor is
replaced by its finite limit 1/(dD/dz_a), computed from the factor's
linear dependence on the consumed variable.  Everything stays an exact
product of factors over the surviving (pivot) variables, evaluable at
arbitrary complex nodes.

The same reduction, read additively, gives the residue expansion of the
half-line SHE moments (`kpz`).  A monomial q^e z^s (s = +-1) reads as the
affine form L = s w + e + [s < 0], so q z becomes w + 1 and 1/z becomes
1 - w; the reading commutes with substitution.  A pair factor reads

    DIFF  (A - B)^power      ->  (L_A - L_B)^power
    PROD  (1 - A B)^power    ->  (L_A + L_B - 1)^power

and F_OVER_Z, F_x(A)/A, is the SHE kernel at the point of the factor's
site; the prefactor monomials drop out.  A consumed 1/(L_A + L_B - 1) has
limit +1 where 1/(1 - A z) has -1/A, so the additive sign is the lattice
sign times (-1)^(number of prefactor monomials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import ValidityError
from .partitions import Diagram, substitution_steps


class ReductionError(RuntimeError):
    """Internal consistency failure while consuming residue substitutions."""


@dataclass(frozen=True)
class Monomial:
    """q^qexp * z_var^vpow with vpow = +-1."""

    qexp: int
    var: int
    vpow: int

    def subst(self, var: int, target: "Monomial") -> "Monomial":
        """Replace z_var by the target monomial (closed under composition)."""
        if self.var != var:
            return self
        return Monomial(self.qexp + self.vpow * target.qexp,
                        target.var, self.vpow * target.vpow)

    def inverse(self) -> "Monomial":
        return Monomial(-self.qexp, self.var, -self.vpow)

    def value(self, q: float, assign: Dict[int, object]):
        z = assign[self.var]
        if self.vpow != 1:
            z = z ** self.vpow
        return z if self.qexp == 0 else q ** self.qexp * z


def zvar(i: int) -> Monomial:
    return Monomial(0, i, 1)


# ---------------------------------------------------------------------------
# atomic factors

DIFF = "diff"            # (A - B)^power
PROD = "prod"            # (1 - A B)^power
F_OVER_Z = "f_over_z"    # F_site(A) / A


@dataclass(frozen=True)
class Factor:
    """(A - B)^power (DIFF) or (1 - A B)^power (PROD), power +-1, or F_site(A)/A."""

    kind: str
    a: Monomial
    b: Optional[Monomial] = None
    power: int = 1
    site: Optional[int] = None

    def subst(self, var: int, target: Monomial) -> "Factor":
        new_a = self.a.subst(var, target)
        new_b = self.b.subst(var, target) if self.b is not None else None
        if new_a is self.a and new_b is self.b:
            return self
        return Factor(self.kind, new_a, new_b, self.power, self.site)

    def vars(self) -> Tuple[int, ...]:
        if self.b is None or self.b.var == self.a.var:
            return (self.a.var,)
        return (self.a.var, self.b.var)

    @property
    def hankel(self) -> bool:
        """Whether the pair's grid values depend on k_a + k_b, not on k_a - k_b."""
        return (self.a.vpow == self.b.vpow) != (self.kind == DIFF)

    def identically_singular(self) -> bool:
        """Denominator vanishes as a function (A = B or A B = 1), not just at a point."""
        return self.power == -1 and self.a == (self.b if self.kind == DIFF else self.b.inverse())


def consume_limit(factor: Factor, var: int) -> Tuple[int, Optional[Monomial]]:
    """Limit of (z_var - pole) * factor as 1/(dD/dz_var) for the linear denominator D.

    Returns (sign, monomial multiplier or None).  The consumed variable is
    always pristine (q^0 z_var) in the singular factor, which the
    substitution order guarantees; anything else is a reduction bug.
    """
    holder, other = (factor.a, factor.b) if (factor.a.var == var) else (factor.b, factor.a)
    if holder.var != var or holder.qexp != 0 or holder.vpow != 1:
        raise ReductionError(f"consumed variable z_{var} not pristine in {factor}")
    if factor.kind == DIFF:
        # D = A - z_var (the consumed variable sits in the second slot)
        if factor.b.var != var:
            raise ReductionError(f"unexpected singular arrangement in {factor}")
        return -1, None
    if factor.kind == PROD:
        # D = 1 - A z_var, dD/dz_var = -A
        return -1, other.inverse()
    raise ReductionError(f"factor kind {factor.kind} cannot be consumed")


@dataclass(frozen=True)
class ReducedIntegrand:
    """Residue-reduced integrand: prefactor times surviving atomic factors."""

    factors: Tuple[Factor, ...]
    free_vars: Tuple[int, ...]
    sign: int = 1
    prefactor_monos: Tuple[Monomial, ...] = ()


def build_phi(x: Sequence[int]) -> List[Factor]:
    """Atomic-factor list of the n = len(x) point integrand for sites x (x_i >= 0).

    The kernel F itself is supplied at evaluation time through the context,
    so the same factor list serves the plain and the weak-asymmetry-scaled
    kernels.
    """
    x = tuple(int(v) for v in x)
    if any(v < 0 for v in x):
        raise ValueError("sites must be >= 0")
    n = len(x)
    factors: List[Factor] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            qz_i = Monomial(1, i, 1)
            factors += [Factor(DIFF, qz_i, Monomial(1, j, 1)),  # q z_i - q z_j
                        Factor(DIFF, qz_i, zvar(j), -1),        # 1/(q z_i - z_j)
                        Factor(PROD, qz_i, zvar(j)),            # 1 - (q z_i) z_j
                        Factor(PROD, zvar(i), zvar(j), -1)]     # 1/(1 - z_i z_j)
    for j in range(1, n + 1):
        factors.append(Factor(F_OVER_Z, a=zvar(j), site=x[j - 1]))
    return factors


def reduce_steps(factors: Sequence[Factor], steps: Sequence[Tuple[int, Tuple[int, int, int]]],
                 free: Sequence[int]) -> ReducedIntegrand:
    """Apply residue substitutions with analytic pole cancellation.

    steps are (var, (qexp, pivot, vpow)) pairs, z_var -> q^qexp z_pivot^vpow,
    as `partitions.substitution_steps` lists them; free are the variables
    left when all steps are taken.  Exactly one factor must turn
    identically singular per step (the order rule walks rows from the
    extremities inward, which keeps intermediate factors finite); zero or
    several singular factors signal a diagram or ordering bug.
    """
    live = list(factors)
    sign = 1
    monos: List[Monomial] = []
    for var, (qe, pivot, vp) in steps:
        target = Monomial(qe, pivot, vp)
        substituted: List[Factor] = []
        singular: List[Factor] = []
        for f in live:
            g = f.subst(var, target)
            if g.identically_singular():
                singular.append(f)  # limit rule needs the pre-substitution factor
            else:
                substituted.append(g)
        if len(singular) != 1:
            raise ReductionError(
                f"step z_{var} -> {target} produced {len(singular)} singular factors")
        s, mono = consume_limit(singular[0], var)
        sign *= s
        if mono is not None:
            monos.append(mono)
        live = substituted
    for f in live:
        if any(v not in free for v in f.vars()):
            raise ReductionError(f"factor {f} still references a consumed variable")
    return ReducedIntegrand(tuple(live), tuple(free), sign, tuple(monos))


def reduce_by_diagram(factors: Sequence[Factor], diagram: Diagram) -> ReducedIntegrand:
    """The integrand reduced along a diagram's substitutions onto its pivots."""
    return reduce_steps(factors, substitution_steps(diagram), diagram.pivots)


# ---------------------------------------------------------------------------
# evaluation

@dataclass(frozen=True)
class EvalContext:
    """Float parameters plus kernel choice for factor evaluation.

    kernel 'plain' is the ASEP kernel F; 'scaled' multiplies the site-j
    kernel by q^{lattice_x/2} e^{(p+q-1)t} with the F-site shifted by one,
    matching the weak-asymmetry observable.  Any other name raises
    ValidityError.
    """

    q: float
    p: float
    rho: float
    t: float
    kernel: str = "plain"

    def __post_init__(self):
        if self.kernel not in ("plain", "scaled"):
            raise ValidityError(f"unknown kernel {self.kernel!r}; use 'plain' or 'scaled'")

    def kernel_parts(self, m):
        """F_site(m)/m = multiplier * exp(exponent + site * log_step), parts free of the site.

        The plain kernel is

            F_x(m) = (1-q m^2)/(1-m) * rho/(rho + (1-rho) m) * e^{E(m)} * P(m)^x,
            E(m) = (1-q)^2 m p t / ((1-m)(1-q m)),   P(m) = (1-m)/(1-q m),

        so the multiplier is the rational part and the density factor over m,
        and the step is log P.  The scaled kernel q^{site/2} e^{(p + q-rate - 1) t}
        F_{site+1} folds its extra P into the multiplier, its constant into
        the exponent and its 0.5 log q into the step.  Sites are integers, so
        any branch of log P serves; it is taken as log|P| + i arg P because
        numpy's complex log takes a slow path near |P| = 1, up to ten times
        the cost.
        """
        q, p, rho, t = self.q, self.p, self.rho, self.t
        qm = q * m
        one_minus_m = 1.0 - m
        one_minus_qm = 1.0 - qm
        step = one_minus_m / one_minus_qm
        exponent = m / (one_minus_m * one_minus_qm)
        exponent *= (1.0 - q) ** 2 * p * t
        # (1-q m^2)/(1-m) * rho/(rho + (1-rho) m) / m, in place to save passes
        denominator = (1.0 / rho - 1.0) * m
        denominator += 1.0
        denominator *= m * one_minus_m
        multiplier = (1.0 - qm * m) / denominator
        log_step = np.empty(np.shape(step), dtype=complex)
        log_step.real = np.log(np.abs(step))
        log_step.imag = np.arctan2(step.imag, step.real)
        if self.kernel == "scaled":
            multiplier *= step
            exponent += (p + q * p - 1.0) * t
            log_step.real += 0.5 * math.log(q)
        return multiplier, exponent, log_step

    def f_kernel(self, z, site: int):
        multiplier, exponent, log_step = self.kernel_parts(z)
        return z * multiplier * np.exp(exponent + site * log_step)


def factor_value(f: Factor, ctx: EvalContext, assign: Dict[int, object]):
    a = f.a.value(ctx.q, assign)
    if f.kind == F_OVER_Z:
        return ctx.f_kernel(a, f.site) / a
    b = f.b.value(ctx.q, assign)
    base = a - b if f.kind == DIFF else 1.0 - a * b
    return base if f.power == 1 else 1.0 / base


def evaluate(reduced: ReducedIntegrand, ctx: EvalContext, assign: Dict[int, object]):
    """Value of the reduced integrand at a free-variable assignment.

    Accepts scalars or broadcastable numpy arrays as assignment values.
    """
    val = complex(reduced.sign)
    for m in reduced.prefactor_monos:
        val = val * m.value(ctx.q, assign)
    for f in reduced.factors:
        val = val * factor_value(f, ctx, assign)
    return val


def time_derivative_terms(reduced: ReducedIntegrand, ctx: EvalContext):
    """Per-kernel analytic d/dt multipliers, keyed by free variable.

    d/dt of the integrand equals the integrand times the sum over F-factors
    of (1-q)^2 M p / ((1-M)(1-q M)) at the factor's monomial argument M;
    the multiplier is t-independent.  Returns {var: [callable(z), ...]}.
    """
    q, p = ctx.q, ctx.p
    terms: Dict[int, list] = {}

    def make(mono: Monomial):
        def mult(zval):
            m = mono.value(q, {mono.var: zval})
            return (1.0 - q) ** 2 * m * p / ((1.0 - m) * (1.0 - q * m))
        return mult

    for f in reduced.factors:
        if f.kind != F_OVER_Z:
            continue
        terms.setdefault(f.a.var, []).append(make(f.a))
    return terms

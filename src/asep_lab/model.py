"""Parameters, particle configurations and the duality observable.

Rates are kept as exact rationals so that boundary conditions such as
alpha/p + gamma/q = 1 can be decided with zero rounding error; numerical
modules convert to float at their entry points.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

RationalLike = Union[int, str, Fraction, float]


class ChamberError(ValueError):
    """Site vector violates the required ordered chamber."""


class ValidityError(ValueError):
    """Parameters outside the validity region of a formula."""


class IntegerRates:
    """A params object's exact rates and diagonal coefficients as ints over one denominator.

    Each attribute named in `scaled` is that Fraction times `denominator`,
    the least common multiple of their denominators; those in `carried`
    (the segment's ell) are copied as they are.  The duality generators
    read the same attribute names from this view as from the params object,
    so a sum over the view is `denominator` times the sum over the params.
    """

    def __init__(self, params: "ModelParams", scaled: Sequence[str], carried: Sequence[str]):
        exact = [getattr(params, name) for name in scaled]
        self.denominator = math.lcm(*(v.denominator for v in exact))
        for name, v in zip(scaled, exact):
            setattr(self, name, v.numerator * (self.denominator // v.denominator))
        for name in carried:
            setattr(self, name, getattr(params, name))


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce to an exact Fraction.

    Floats are converted through their shortest decimal repr, so 0.9
    becomes 9/10 rather than the binary expansion of the double.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    try:
        return Fraction(str(value) if isinstance(value, float) else value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidityError(f"not an exact rational: {value!r}") from exc


@dataclass(frozen=True)
class ModelParams:
    """Jump and boundary rates of half-line open ASEP.

    p_rate/q_rate are the right/left bulk jump rates, alpha/gamma the
    injection/ejection rates at site 1.  The asymmetry q = q_rate/p_rate
    must lie in (0, 1).

    The derived rationals (q, rho, the boundary conditions, the duality
    coefficients and their integer view) are computed once per instance and
    kept in its __dict__; equality, hashing, repr and pickling use the
    fields only.
    """

    p_rate: Fraction
    q_rate: Fraction
    alpha: Fraction
    gamma: Fraction

    # the exact values IntegerRates scales to ints, and those it copies
    _SCALED = ("p_rate", "q_rate", "alpha", "gamma",
               "dual_diag_left", "corrected_hop", "corrected_stay")
    _CARRIED = ()

    def __post_init__(self):
        for name in ("p_rate", "q_rate", "alpha", "gamma"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if self.p_rate <= 0 or self.q_rate <= 0:
            raise ValidityError("jump rates must be positive")
        if self.alpha < 0 or self.gamma < 0:
            raise ValidityError("boundary rates must be nonnegative")
        if not (0 < self.q < 1):
            raise ValidityError(f"asymmetry q = q_rate/p_rate must be in (0,1), got {self.q}")

    @classmethod
    def from_density(cls, p_rate: RationalLike, q_rate: RationalLike,
                     rho: RationalLike) -> "ModelParams":
        """Boundary rates from a density: alpha = rho*p, gamma = (1-rho)*q.

        This parametrization satisfies alpha/p + gamma/q = 1 identically.
        """
        p, q, r = as_fraction(p_rate), as_fraction(q_rate), as_fraction(rho)
        if not (0 <= r <= 1):
            raise ValidityError("density must be in [0,1]")
        return cls(p, q, r * p, (1 - r) * q)

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def q(self) -> Fraction:
        return self.q_rate / self.p_rate

    @cached_property
    def rho(self) -> Fraction:
        return self.alpha / self.p_rate

    @cached_property
    def dual_diag_left(self) -> Fraction:
        """(q_rate - p_rate) rho: the killed dual's diagonal when x_1 = 1."""
        return (self.q_rate - self.p_rate) * self.rho

    @cached_property
    def corrected_hop(self) -> Fraction:
        """alpha q + gamma, the weight of H(eta; 2, x_2, ...) in the corrected identity."""
        return self.alpha * self.q + self.gamma

    @cached_property
    def corrected_stay(self) -> Fraction:
        """alpha + gamma, the weight of -H(eta; 1, x_2, ...) in the corrected identity."""
        return self.alpha + self.gamma

    @cached_property
    def integer_rates(self) -> IntegerRates:
        """The rates and duality coefficients as ints over their common denominator."""
        return IntegerRates(self, self._SCALED, self._CARRIED)

    @cached_property
    def _liggett(self) -> bool:
        return self.alpha / self.p_rate + self.gamma / self.q_rate == 1

    def liggett_ok(self) -> bool:
        """alpha/p + gamma/q = 1, decided exactly."""
        return self._liggett

    def formula_ok(self) -> bool:
        """rho in (1/(1+sqrt(q)), 1], i.e. rho/(1-rho) > 1/sqrt(q), exactly.

        rho > 1/(1+sqrt(q))  <=>  rho*sqrt(q) > 1-rho  <=>  q*rho^2 > (1-rho)^2
        for rho < 1; rho = 1 always qualifies.  Decided once per instance: a
        bridge call asks twice, on rates whose Fractions carry float-sized
        denominators.
        """
        return self._formula

    @cached_property
    def _formula(self) -> bool:
        r = self.rho
        if r > 1:
            return False
        if r == 1:
            return True
        return self.q * r * r > (1 - r) * (1 - r)


@dataclass(frozen=True)
class SegmentParams(ModelParams):
    """Open ASEP on a segment: a second reservoir acts at site ell-1.

    beta annihilates there (through-count N goes up), delta creates
    (N goes down).  ell is the dual-lattice length; occupation variables
    live on sites 1..ell-1.
    """

    ell: int = 2
    beta: Fraction = Fraction(0)
    delta: Fraction = Fraction(0)

    _SCALED = ModelParams._SCALED + ("beta", "delta", "dual_diag_right")
    _CARRIED = ("ell",)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "beta", as_fraction(self.beta))
        object.__setattr__(self, "delta", as_fraction(self.delta))
        if not isinstance(self.ell, int) or self.ell < 2:
            raise ValidityError("segment length parameter ell must be an integer >= 2")
        if self.beta < 0 or self.delta < 0:
            raise ValidityError("boundary rates must be nonnegative")

    @classmethod
    def from_densities(cls, p_rate: RationalLike, q_rate: RationalLike,
                       rho0: RationalLike, rho_ell: RationalLike, ell: int) -> "SegmentParams":
        p, q = as_fraction(p_rate), as_fraction(q_rate)
        r0, rl = as_fraction(rho0), as_fraction(rho_ell)
        for r in (r0, rl):
            if not (0 <= r <= 1):
                raise ValidityError("densities must be in [0,1]")
        return cls(p, q, r0 * p, (1 - r0) * q, ell=ell,
                   beta=(1 - rl) * p, delta=rl * q)

    @cached_property
    def rho0(self) -> Fraction:
        return self.alpha / self.p_rate

    @cached_property
    def rho_ell(self) -> Fraction:
        return self.delta / self.q_rate

    @cached_property
    def dual_diag_right(self) -> Fraction:
        """(p_rate - q_rate) rho_ell: the dual's diagonal when x_n = ell."""
        return (self.p_rate - self.q_rate) * self.rho_ell

    @cached_property
    def _liggett2(self) -> bool:
        return self.liggett_ok() and self.beta / self.p_rate + self.delta / self.q_rate == 1

    def liggett2_ok(self) -> bool:
        """Both boundary conditions alpha/p+gamma/q = 1 and beta/p+delta/q = 1."""
        return self._liggett2


@dataclass(frozen=True)
class AsepState:
    """Half-line configuration as the (finite) set of occupied sites."""

    occupied: frozenset

    def __post_init__(self):
        object.__setattr__(self, "occupied", frozenset(self.occupied))
        if any((not isinstance(s, int)) or s < 1 for s in self.occupied):
            raise ValueError("occupied sites must be integers >= 1")

    @classmethod
    def empty(cls) -> "AsepState":
        return cls(frozenset())


@dataclass(frozen=True)
class SegmentState:
    """Segment configuration: occupation bits on 1..ell-1 plus through-count."""

    eta: tuple
    n_ell: int = 0

    def __post_init__(self):
        object.__setattr__(self, "eta", tuple(int(b) for b in self.eta))
        if any(b not in (0, 1) for b in self.eta):
            raise ValueError("eta must be a 0/1 vector")

    @property
    def ell(self) -> int:
        return len(self.eta) + 1

    @classmethod
    def empty(cls, ell: int) -> "SegmentState":
        return cls((0,) * (ell - 1), 0)


def check_chamber(x: Sequence[int], low: int | None = 1, high: int | None = None) -> tuple:
    """x as a tuple of ints, refused with ChamberError unless it is nonempty, of
    integer sites (numpy integers and integral floats included; not 1.5 or NaN)
    and low <= x_1 < ... < x_n <= high, a bound of None being open."""
    try:
        xs = tuple(map(operator.index, x))
    except TypeError:
        integral = all(isinstance(v, numbers.Real) and float(v).is_integer() for v in x)
        xs = tuple(map(int, x)) if integral else ()
    if (xs and all(map(operator.lt, xs, xs[1:]))
            and (low is None or xs[0] >= low) and (high is None or xs[-1] <= high)):
        return xs
    bounds = "".join((f"{low} <= " if low is not None else "", "x_1 < ... < x_n",
                      f" <= {high}" if high is not None else ""))
    raise ChamberError(f"site vector must be nonempty, of integer sites with {bounds} "
                       f"(strictly increasing), got x={tuple(x)}")


def current(state: AsepState, x: int):
    """Number of particles at or to the right of site x."""
    return sum(1 for s in state.occupied if s >= x)


def h_exponent(occupied: Iterable[int], x: Sequence[int]) -> int:
    """sum_i N_{x_i}, the exponent of the duality observable (any integer sites)."""
    total = 0
    for s in occupied:
        for xi in x:
            if s >= xi:
                total += 1
    return total


def h_product(occupied: Iterable[int], x: Sequence[int], q):
    """prod_i q^{N_{x_i}} without chamber validation (any integer sites).

    Works for exact Fraction q as well as float q.
    """
    return q ** h_exponent(occupied, x)


def observable_h(state: AsepState, x: Sequence[int], q):
    """Duality observable prod_i q^{N_{x_i}} on a strictly increasing chamber vector."""
    return h_product(state.occupied, check_chamber(x), q)


def current_segment(state: SegmentState, x: int):
    """Segment current: particles on sites >= x plus the through-count."""
    return sum(state.eta[x - 1:]) + state.n_ell


def h_exponent_segment(eta: Sequence[int], n_ell: int, x: Sequence[int]) -> int:
    """sum_i N_{x_i} on the segment, N_x = sum_{i>=x} eta_i + N_ell, at any integer sites,
    in one walk from the right that adds each eta entry of an increasing x once."""
    total, start, suffix = len(x) * n_ell, len(eta), 0
    for xi in reversed(x):
        i = xi - 1 if xi > 1 else 0
        if i < start:
            suffix, start = suffix + sum(eta[i:start]), i
            total += suffix
        else:
            total += suffix - sum(eta[start:i])
    return total


def h_product_segment(eta: Sequence[int], n_ell: int, x: Sequence[int], q):
    """Segment observable without chamber validation."""
    return q ** h_exponent_segment(eta, n_ell, x)


def observable_h_segment(state: SegmentState, x: Sequence[int], q):
    """prod_i q^{N_{x_i}} with N_x = sum_{i>=x} eta_i + N_ell, for 1 <= x_1 < ... <= ell."""
    return h_product_segment(state.eta, state.n_ell, check_chamber(x, 1, state.ell), q)

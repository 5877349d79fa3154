"""Exact rational verification of the Markov duality identities.

Each generator is a finite list of (rate, new state) transitions plus an
optional diagonal coefficient (boundary killing/duplication); applying one
to the observable H = prod q^{N_{x_i}} is a finite sum of exact rationals,
so affirmative duality residuals must be the rational number zero, with no
tolerance anywhere.

The verifiers do that sum in integers only.  The rates and diagonal
coefficients are carried as ints over their common denominator D (the
params' `integer_rates` view); with q = a/b and every exponent E of one
identity inside known bounds lo <= E <= hi, q^E is the integer
a^(E-lo) b^(hi-E) times the constant a^lo / b^hi (see _QPowers).  Each side
is an int until it becomes one Fraction, total * a^lo / (D * b^hi).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from .model import (IntegerRates, ModelParams, SegmentParams, ValidityError, h_exponent,
                    h_exponent_segment)

Eta = frozenset
# generators yield (rate, new_state); diagonal terms are returned separately

# one shared zero: Fractions are immutable and each construction costs ~1 us
_ZERO = Fraction(0)

FULL_LINE = "full_line"
HALF_LINE = "half_line"
HALF_LINE_CLOSED = "half_line_closed"
DUAL_N = "dual_n"
DUAL_N_BOUNDARY = "dual_n_boundary"
SEGMENT = "segment"
SEGMENT_CLOSED = "segment_closed"
DUAL_SEGMENT = "dual_segment"


@dataclass(frozen=True)
class GeneratorSpec:
    """A generator kind with its exact parameters: Fraction params, or their
    IntegerRates view, whose rates come out as ints."""

    kind: str
    params: Union[ModelParams, IntegerRates]
    n: Optional[int] = None

    def transitions(self, state):
        return _TRANSITIONS[self.kind](self.params, state)

    def diagonal(self, state):
        """The diagonal coefficient at `state`, of the rates' type (zero if the kind has none)."""
        fn = _DIAGONALS.get(self.kind)
        return fn(self.params, state) if fn else 0 * self.params.p_rate


def _swap_moves(eta: Eta, sites: Iterable[int], p: Fraction, q: Fraction):
    """Bulk exclusion moves across bonds (x, x+1) for x in sites."""
    for x in sites:
        if x in eta and x + 1 not in eta:
            yield p, (eta - {x}) | {x + 1}
        elif x + 1 in eta and x not in eta:
            yield q, (eta - {x + 1}) | {x}


def _bond_range(eta: Eta, low: Optional[int]):
    """Bonds with a particle on either end (all others have rate zero)."""
    bonds = set()
    for s in eta:
        bonds.add(s)
        bonds.add(s - 1)
    if low is not None:
        bonds = {b for b in bonds if b >= low}
    return sorted(bonds)


def _halfline_transitions(params: ModelParams, eta: Eta):
    out = []
    if 1 not in eta:
        out.append((params.alpha, eta | {1}))
    else:
        out.append((params.gamma, eta - {1}))
    out.extend(_swap_moves(eta, _bond_range(eta, 1), params.p_rate, params.q_rate))
    return out


def _fullline_transitions(params: ModelParams, eta: Eta):
    return list(_swap_moves(eta, _bond_range(eta, None), params.p_rate, params.q_rate))


def _halfline_closed_transitions(params: ModelParams, eta: Eta):
    return list(_swap_moves(eta, _bond_range(eta, 0), params.p_rate, params.q_rate))


def _dual_moves(params: ModelParams, x: Tuple[int, ...], low: Optional[int],
                high: Optional[int]):
    """Dual n-particle moves: left at rate p, right at rate q (reversed roles)."""
    p, q = params.p_rate, params.q_rate
    n = len(x)
    out = []
    for i in range(n):
        gap_ok = x[i] - x[i - 1] > 1 if i > 0 else (low is None or x[i] > low)
        if gap_ok:
            out.append((p, x[:i] + (x[i] - 1,) + x[i + 1:]))
    for i in range(n):
        gap_ok = x[i + 1] - x[i] > 1 if i < n - 1 else (high is None or x[i] < high)
        if gap_ok:
            out.append((q, x[:i] + (x[i] + 1,) + x[i + 1:]))
    return out


def _dual_n_transitions(params: ModelParams, x: Tuple[int, ...]):
    return _dual_moves(params, x, low=None, high=None)


def _dual_boundary_transitions(params: ModelParams, x: Tuple[int, ...]):
    return _dual_moves(params, x, low=1, high=None)


def _dual_boundary_diagonal(params: ModelParams, x: Tuple[int, ...]):
    return (x[0] == 1) * params.dual_diag_left


def _dual_segment_transitions(params: SegmentParams, x: Tuple[int, ...]):
    return _dual_moves(params, x, low=1, high=params.ell)


def _dual_segment_diagonal(params: SegmentParams, x: Tuple[int, ...]):
    # dual_diag_left is (q - p) rho0 on a segment, since rho0 = rho = alpha / p
    return ((x[0] == 1) * params.dual_diag_left
            + (x[-1] == params.ell) * params.dual_diag_right)


def _segment_transitions(params: SegmentParams, state):
    eta, n_ell = state
    ell = params.ell
    out = []
    if eta[0] == 0:
        out.append((params.alpha, (_flip(eta, 0, 1), n_ell)))
    else:
        out.append((params.gamma, (_flip(eta, 0, 0), n_ell)))
    if eta[ell - 2] == 0:
        out.append((params.delta, (_flip(eta, ell - 2, 1), n_ell - 1)))
    else:
        out.append((params.beta, (_flip(eta, ell - 2, 0), n_ell + 1)))
    for x in range(ell - 2):
        if eta[x] == 1 and eta[x + 1] == 0:
            out.append((params.p_rate, (_swap(eta, x), n_ell)))
        elif eta[x] == 0 and eta[x + 1] == 1:
            out.append((params.q_rate, (_swap(eta, x), n_ell)))
    return out


def _segment_closed_transitions(params: SegmentParams, state):
    """Reflecting exclusion on sites 0..ell; crossings of (ell-1, ell) move N."""
    occ, n_ell = state  # occ is a 0/1 tuple over sites 0..ell
    ell = params.ell
    out = []
    for x in range(ell):
        dn = 1 if x == ell - 1 else 0
        if occ[x] == 1 and occ[x + 1] == 0:
            out.append((params.p_rate, (_swap(occ, x), n_ell + dn)))
        elif occ[x] == 0 and occ[x + 1] == 1:
            out.append((params.q_rate, (_swap(occ, x), n_ell - dn)))
    return out


def _flip(eta: tuple, i: int, val: int) -> tuple:
    return eta[:i] + (val,) + eta[i + 1:]


def _swap(eta: tuple, x: int) -> tuple:
    return eta[:x] + (eta[x + 1], eta[x]) + eta[x + 2:]


_TRANSITIONS = {
    FULL_LINE: _fullline_transitions,
    HALF_LINE: _halfline_transitions,
    HALF_LINE_CLOSED: _halfline_closed_transitions,
    DUAL_N: _dual_n_transitions,
    DUAL_N_BOUNDARY: _dual_boundary_transitions,
    SEGMENT: _segment_transitions,
    SEGMENT_CLOSED: _segment_closed_transitions,
    DUAL_SEGMENT: _dual_segment_transitions,
}

_DIAGONALS = {
    DUAL_N_BOUNDARY: _dual_boundary_diagonal,
    DUAL_SEGMENT: _dual_segment_diagonal,
}


def apply_generator(gen: GeneratorSpec, f: Callable, state):
    """Exact sum of rate * (f(new) - f(state)) plus any diagonal term.

    f must be exact-valued (int or Fraction).  The sum is a Fraction for
    Fraction params and an int when the rates (an IntegerRates view) and f
    are ints.  Rates are summed per distinct value of f(new) and moves that
    leave f unchanged are skipped, so the arithmetic on f's values grows
    with the number of distinct values, not with the number of transitions.
    """
    f0 = f(state)
    rate_by_value = {}
    for rate, new in gen.transitions(state):
        value = f(new)
        if value == f0:
            continue
        if value in rate_by_value:
            rate_by_value[value] += rate
        else:
            rate_by_value[value] = rate
    total = gen.diagonal(state) * f0
    for value, rate in rate_by_value.items():
        total += rate * (value - f0)
    return total


class _QPowers:
    """q^E for lo <= E <= hi as the integer a^(E-lo) b^(hi-E), with q = a/b.

    q^E equals that integer times `scale` = a^lo / b^hi.  An exponent
    outside [lo, hi] raises: a negative integer power would be a float.
    """

    def __init__(self, q: Fraction, lo: int, hi: int):
        self.a, self.b = q.numerator, q.denominator
        self.lo, self.hi = lo, hi

    def exact(self, total: int, denominator: int) -> Fraction:
        """total * scale / denominator, as one Fraction made from ints."""
        if self.lo >= 0:
            return Fraction(total * self.a ** self.lo, denominator * self.b ** self.hi)
        return Fraction(total, denominator * self.a ** -self.lo * self.b ** self.hi)

    @property
    def scale(self) -> Fraction:
        return self.exact(1, 1)

    def __call__(self, e: int) -> int:
        if not self.lo <= e <= self.hi:
            raise ArithmeticError(f"exponent {e} outside [{self.lo}, {self.hi}]")
        return self.a ** (e - self.lo) * self.b ** (self.hi - e)


def _line_powers(params: ModelParams, eta: Eta, n: int) -> _QPowers:
    """Bounds for one line identity: every state it reaches holds at most
    |eta| + 1 particles (one injected at site 1 or put on the fictitious
    site 0), so every N_{x_i} stays in [0, |eta| + 1]."""
    return _QPowers(params.q, 0, n * (len(eta) + 1))


@dataclass
class DualityReport:
    """One exact duality check: residual must be the rational zero."""

    instance: str
    lhs: Fraction
    rhs: Fraction

    @property
    def residual(self) -> Fraction:
        # equal sides, the affirmative case, need no Fraction subtraction
        return _ZERO if self.lhs == self.rhs else self.lhs - self.rhs

    @property
    def ok(self) -> bool:
        return self.residual == 0

    def to_json(self) -> str:
        return json.dumps({
            "instance": self.instance,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "residual": str(self.residual),
            "ok": self.ok,
        }, sort_keys=True)


def _coerce_eta(eta) -> Eta:
    if hasattr(eta, "occupied"):
        return frozenset(eta.occupied)
    return frozenset(eta)


def verify_halfline_duality(params: ModelParams, eta, x: Sequence[int]) -> DualityReport:
    """Half-line generator vs killed dual generator applied to H; residual 0."""
    if not params.liggett_ok():
        raise ValidityError("half-line duality requires alpha/p + gamma/q = 1 "
                            "(use negative_control_no_liggett otherwise)")
    eta = _coerce_eta(eta)
    x = tuple(x)
    pw = _line_powers(params, eta, len(x))
    rates = params.integer_rates
    lhs = apply_generator(GeneratorSpec(HALF_LINE, rates), lambda s: pw(h_exponent(s, x)), eta)
    rhs = apply_generator(GeneratorSpec(DUAL_N_BOUNDARY, rates, len(x)),
                          lambda y: pw(h_exponent(eta, y)), x)
    d = rates.denominator
    return DualityReport(f"halfline eta={sorted(eta)} x={x}", pw.exact(lhs, d), pw.exact(rhs, d))


def verify_fullspace_duality(params: ModelParams, eta, x: Sequence[int]) -> DualityReport:
    """Full-line generator vs n-particle dual generator; residual 0, no boundary condition."""
    eta = _coerce_eta(eta)
    x = tuple(x)
    pw = _line_powers(params, eta, len(x))
    rates = params.integer_rates
    lhs = apply_generator(GeneratorSpec(FULL_LINE, rates), lambda s: pw(h_exponent(s, x)), eta)
    rhs = apply_generator(GeneratorSpec(DUAL_N, rates, len(x)),
                          lambda y: pw(h_exponent(eta, y)), x)
    d = rates.denominator
    return DualityReport(f"fullspace eta={sorted(eta)} x={x}", pw.exact(lhs, d), pw.exact(rhs, d))


def verify_segment_duality(params: SegmentParams, eta: Sequence[int], n_ell: int,
                           x: Sequence[int]) -> DualityReport:
    """Segment generator vs mixed-boundary dual generator; residual 0.

    Both sides scale by q^{n k} when the through-count changes by k
    (transitions move it by +-1 with factors independent of its value), so
    checking at n_ell = 0 suffices; the scaling itself is covered by tests.
    """
    if not params.liggett2_ok():
        raise ValidityError("segment duality requires Liggett's condition on both sides")
    eta = tuple(eta)
    x = tuple(x)
    n = len(x)
    # a transition moves one particle and the through-count by at most one,
    # so every N_{x_i} stays in [n_ell - 1, len(eta) + n_ell + 1]
    pw = _QPowers(params.q, n * (n_ell - 1), n * (len(eta) + n_ell + 1))
    rates = params.integer_rates
    lhs = apply_generator(GeneratorSpec(SEGMENT, rates),
                          lambda s: pw(h_exponent_segment(s[0], s[1], x)), (eta, n_ell))
    rhs = apply_generator(GeneratorSpec(DUAL_SEGMENT, rates, n),
                          lambda y: pw(h_exponent_segment(eta, n_ell, y)), x)
    d = rates.denominator
    return DualityReport(f"segment eta={eta} N={n_ell} x={x}",
                         pw.exact(lhs, d), pw.exact(rhs, d))


@dataclass
class NegativeControlReport:
    """Behaviour of the half-line identity when the boundary condition fails."""

    x: Tuple[int, ...]
    bulk_report: Optional[DualityReport]
    corrected_report: Optional[DualityReport]
    plain_residual: Fraction


def negative_control_no_liggett(params: ModelParams, eta,
                                x: Sequence[int]) -> NegativeControlReport:
    """Without alpha/p + gamma/q = 1: plain duality holds for x_1 >= 2 and a
    corrected identity holds for x_1 = 1.

    For x_1 = 1 the corrected right-hand side is
    (alpha q + gamma) H(eta; 2, x_2, ...) - (alpha + gamma) H(eta; 1, x_2, ...)
    + D^{(n-1)} H(eta; 1, x_2, ...) with the dual generator acting on the
    remaining coordinates (which may step outside the ordered chamber).
    """
    eta = _coerce_eta(eta)
    x = tuple(x)
    pw = _line_powers(params, eta, len(x))
    rates = params.integer_rates
    d = rates.denominator
    h = lambda y: pw(h_exponent(eta, y))
    lhs = apply_generator(GeneratorSpec(HALF_LINE, rates), lambda s: pw(h_exponent(s, x)), eta)
    plain = apply_generator(GeneratorSpec(DUAL_N, rates, len(x)), h, x)
    lhs_q = pw.exact(lhs, d)

    if x[0] >= 2:
        rep = DualityReport(f"no-liggett bulk eta={sorted(eta)} x={x}", lhs_q,
                            pw.exact(plain, d))
        return NegativeControlReport(x, rep, None, rep.residual)

    tail = x[1:]
    corrected = (rates.corrected_hop * h((2,) + tail)
                 - rates.corrected_stay * h((1,) + tail))
    if tail:
        corrected += apply_generator(
            GeneratorSpec(DUAL_N, rates, len(tail)),
            lambda y: h((1,) + tuple(y)), tail)
    rep = DualityReport(f"no-liggett corrected eta={sorted(eta)} x={x}", lhs_q,
                        pw.exact(corrected, d))
    return NegativeControlReport(x, None, rep, pw.exact(lhs - plain, d))


def verify_fictitious_site(params: ModelParams, eta, x: Sequence[int]) -> DualityReport:
    """Boundary rates as an averaged extra site: L f = E_{eta_0~Bern(rho)}[L_closed f].

    Requires alpha/p + gamma/q = 1; f = H at the given sites.
    """
    if not params.liggett_ok():
        raise ValidityError("fictitious-site identity requires Liggett's condition")
    eta = _coerce_eta(eta)
    x = tuple(x)
    pw = _line_powers(params, eta, len(x))
    rates = params.integer_rates
    h = lambda s: pw(h_exponent(s, x))
    lhs = apply_generator(GeneratorSpec(HALF_LINE, rates), h, eta)
    closed = GeneratorSpec(HALF_LINE_CLOSED, rates)
    # rho A + (1 - rho) B = (a A + (b - a) B) / b for rho = a / b
    a, b = params.rho.numerator, params.rho.denominator
    rhs = (a * apply_generator(closed, h, eta | {0})
           + (b - a) * apply_generator(closed, h, eta - {0}))
    d = rates.denominator
    return DualityReport(f"fictitious eta={sorted(eta)} x={x}",
                         pw.exact(lhs, d), pw.exact(rhs, d * b))


def exhaustive_states(max_site: int) -> List[Eta]:
    """All configurations supported on sites 1..max_site."""
    sites = list(range(1, max_site + 1))
    out = []
    for mask in range(1 << len(sites)):
        out.append(frozenset(s for i, s in enumerate(sites) if (mask >> i) & 1))
    return out


def chamber_vectors(low: int, high: int, n: int) -> List[Tuple[int, ...]]:
    """Site vectors low <= x_1 < ... < x_n <= high, in lexicographic order."""
    return list(itertools.combinations(range(low, high + 1), n))

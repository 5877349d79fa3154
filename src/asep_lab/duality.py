"""Exact rational verification of the Markov duality identities.

Each generator is a move function (params, state) -> [(rate, new state),
...], plus for the two killed duals a diagonal coefficient (boundary
killing/duplication); params may be Fractions or their `integer_rates`
view.  `apply_generator` applies one to the observable H = prod q^{N_{x_i}}
as a finite sum of exact rationals, so affirmative duality residuals must be
the rational number zero, with no tolerance anywhere.

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
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .model import (ModelParams, SegmentParams, ValidityError, h_exponent,
                    h_exponent_segment)

Eta = frozenset

# one shared zero: Fractions are immutable and each construction costs ~1 us
_ZERO = Fraction(0)


def exclusion_moves(params, eta: Eta, low: Optional[int] = None):
    """Bulk exclusion moves on the line: a particle steps right at p_rate and
    left at q_rate across each bond (x, x+1) with x >= low (any x if low is
    None), so low = 0 closes the half line at site 0."""
    p, q = params.p_rate, params.q_rate
    # only bonds with a particle on either end have a nonzero rate
    bonds = {b for s in eta for b in (s - 1, s) if low is None or b >= low}
    out = []
    for x in sorted(bonds):
        if x in eta and x + 1 not in eta:
            out.append((p, (eta - {x}) | {x + 1}))
        elif x + 1 in eta and x not in eta:
            out.append((q, (eta - {x + 1}) | {x}))
    return out


def halfline_moves(params, eta: Eta):
    """Half-line moves: injection at site 1 at alpha, ejection at gamma, bulk exclusion."""
    boundary = (params.alpha, eta | {1}) if 1 not in eta else (params.gamma, eta - {1})
    return [boundary] + exclusion_moves(params, eta, 1)


def dual_moves(params, x: Tuple[int, ...], low: Optional[int] = None,
               high: Optional[int] = None):
    """Dual n-particle moves: left at rate p, right at rate q (reversed roles).

    Sites stay in [low, high], a bound of None being open: the line dual
    has neither, the killed half-line dual low = 1 and the segment dual
    (1, ell).  The killing itself is a diagonal term (dual_*_diagonal).
    """
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


def dual_boundary_diagonal(params, x: Tuple[int, ...]):
    """Diagonal coefficient of the killed half-line dual at x."""
    return (x[0] == 1) * params.dual_diag_left


def dual_segment_diagonal(params, x: Tuple[int, ...]):
    """Diagonal coefficient of the segment dual at x."""
    # dual_diag_left is (q - p) rho0 on a segment, since rho0 = rho = alpha / p
    return ((x[0] == 1) * params.dual_diag_left
            + (x[-1] == params.ell) * params.dual_diag_right)


def segment_moves(params, state):
    """Segment moves of (eta, n_ell): eta holds the 0/1 occupations of sites
    1..ell-1, n_ell the net number of particles that left at the right end."""
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


def _flip(eta: tuple, i: int, val: int) -> tuple:
    return eta[:i] + (val,) + eta[i + 1:]


def _swap(eta: tuple, x: int) -> tuple:
    return eta[:x] + (eta[x + 1], eta[x]) + eta[x + 2:]


def apply_generator(moves: Iterable, f: Callable, state, diagonal=0):
    """Exact sum of rate * (f(new) - f(state)) over moves, plus diagonal * f(state).

    f must be exact-valued (int or Fraction).  The sum is a Fraction for
    Fraction params (moves and diagonal) and a Fraction-valued f, and an
    int when the rates and diagonal come from an IntegerRates view and f
    is int-valued; the default diagonal 0 keeps either type.  Rates are
    summed per distinct value of f(new) and moves that leave f unchanged
    are skipped, so the arithmetic on f's values grows with the number of
    distinct values, not with the number of moves.
    """
    f0 = f(state)
    rate_by_value = {}
    for rate, new in moves:
        value = f(new)
        if value == f0:
            continue
        if value in rate_by_value:
            rate_by_value[value] += rate
        else:
            rate_by_value[value] = rate
    total = diagonal * f0
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


def _line_identity(params: ModelParams, eta, x: Sequence[int]):
    """(eta, x, q-powers, integer rates) of one line identity at eta (a set
    of sites or an AsepState) and sites x.

    The q-power bounds: every state the identity reaches holds at most
    |eta| + 1 particles (one injected at site 1 or put on the fictitious
    site 0), so every N_{x_i} stays in [0, |eta| + 1].
    """
    eta = frozenset(getattr(eta, "occupied", eta))
    x = tuple(x)
    return eta, x, _QPowers(params.q, 0, len(x) * (len(eta) + 1)), params.integer_rates


def verify_halfline_duality(params: ModelParams, eta, x: Sequence[int]) -> DualityReport:
    """Half-line generator vs killed dual generator applied to H; residual 0."""
    if not params.liggett_ok():
        raise ValidityError("half-line duality requires alpha/p + gamma/q = 1 "
                            "(use negative_control_no_liggett otherwise)")
    eta, x, pw, rates = _line_identity(params, eta, x)
    lhs = apply_generator(halfline_moves(rates, eta), lambda s: pw(h_exponent(s, x)), eta)
    rhs = apply_generator(dual_moves(rates, x, low=1), lambda y: pw(h_exponent(eta, y)), x,
                          dual_boundary_diagonal(rates, x))
    d = rates.denominator
    return DualityReport(f"halfline eta={sorted(eta)} x={x}", pw.exact(lhs, d), pw.exact(rhs, d))


def verify_fullspace_duality(params: ModelParams, eta, x: Sequence[int]) -> DualityReport:
    """Full-line generator vs n-particle dual generator; residual 0, no boundary condition."""
    eta, x, pw, rates = _line_identity(params, eta, x)
    lhs = apply_generator(exclusion_moves(rates, eta), lambda s: pw(h_exponent(s, x)), eta)
    rhs = apply_generator(dual_moves(rates, x), lambda y: pw(h_exponent(eta, y)), x)
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
    state = (eta, n_ell)
    lhs = apply_generator(segment_moves(rates, state),
                          lambda s: pw(h_exponent_segment(s[0], s[1], x)), state)
    rhs = apply_generator(dual_moves(rates, x, 1, params.ell),
                          lambda y: pw(h_exponent_segment(eta, n_ell, y)), x,
                          dual_segment_diagonal(rates, x))
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
    eta, x, pw, rates = _line_identity(params, eta, x)
    d = rates.denominator
    h = lambda y: pw(h_exponent(eta, y))
    lhs = apply_generator(halfline_moves(rates, eta), lambda s: pw(h_exponent(s, x)), eta)
    plain = apply_generator(dual_moves(rates, x), h, x)
    lhs_q = pw.exact(lhs, d)

    if x[0] >= 2:
        rep = DualityReport(f"no-liggett bulk eta={sorted(eta)} x={x}", lhs_q,
                            pw.exact(plain, d))
        return NegativeControlReport(x, rep, None, rep.residual)

    tail = x[1:]
    corrected = (rates.corrected_hop * h((2,) + tail)
                 - rates.corrected_stay * h((1,) + tail))
    if tail:
        corrected += apply_generator(dual_moves(rates, tail), lambda y: h((1,) + y), tail)
    rep = DualityReport(f"no-liggett corrected eta={sorted(eta)} x={x}", lhs_q,
                        pw.exact(corrected, d))
    return NegativeControlReport(x, None, rep, pw.exact(lhs - plain, d))


def verify_fictitious_site(params: ModelParams, eta, x: Sequence[int]) -> DualityReport:
    """Boundary rates as an averaged extra site: L f = E_{eta_0~Bern(rho)}[L_closed f].

    Requires alpha/p + gamma/q = 1; f = H at the given sites.
    """
    if not params.liggett_ok():
        raise ValidityError("fictitious-site identity requires Liggett's condition")
    eta, x, pw, rates = _line_identity(params, eta, x)
    h = lambda s: pw(h_exponent(s, x))
    lhs = apply_generator(halfline_moves(rates, eta), h, eta)
    # the closed half line on sites 0, 1, ... with site 0 filled or empty
    filled, empty = eta | {0}, eta - {0}
    # rho A + (1 - rho) B = (a A + (b - a) B) / b for rho = a / b
    a, b = params.rho.numerator, params.rho.denominator
    rhs = (a * apply_generator(exclusion_moves(rates, filled, 0), h, filled)
           + (b - a) * apply_generator(exclusion_moves(rates, empty, 0), h, empty))
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

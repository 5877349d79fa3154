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
stays an int total over an int denominator, both in units of that
constant, until it is read: a `DualityReport` decides its residual by one
int cross-multiplication and builds the Fraction sides, their difference
and its instance label only when they are read.

Each verifier refuses, with a ChamberError or ValidityError naming the
input, what lies outside its identity: x must pass `model.check_chamber`,
with x_1 >= 1 on the half line and 1 <= x_1, x_n <= ell on the segment; a
half-line eta (halfline, fictitious and no-liggett identities) holds sites
>= 1 only, and a segment eta is a 0/1 vector of length ell - 1.
The full-line identity takes any integer sites, negative ones included.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .model import (ModelParams, SegmentParams, ValidityError, check_chamber, h_exponent,
                    h_exponent_segment)

Eta = frozenset

# one shared zero: Fractions are immutable and each construction costs ~1 us
_ZERO = Fraction(0)


def exclusion_moves(params, eta: Eta, low: Optional[int] = None):
    """Bulk exclusion moves on the line: a particle steps right at p_rate and
    left at q_rate across each bond (x, x+1) with x >= low (any x if low is
    None), so low = 0 closes the half line at site 0.  The moves come in
    the order of their bonds."""
    p, q = params.p_rate, params.q_rate
    out = []
    # a particle's left step crosses bond s - 1 and its right step bond s,
    # so walking the particles in order lists the bonds in order
    for s in sorted(eta):
        left = s - 1 not in eta and (low is None or s - 1 >= low)
        right = s + 1 not in eta and (low is None or s >= low)
        if left or right:
            rest = eta - {s}
            if left:
                out.append((q, rest | {s - 1}))
            if right:
                out.append((p, rest | {s + 1}))
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


class _QPowers(dict):
    """q^E for lo <= E <= hi as the integer pw[E] = a^(E-lo) b^(hi-E), with q = a/b.

    q^E equals that integer times `scale` = a^lo / b^hi.  An exponent
    outside [lo, hi] raises: a negative integer power would be a float.
    Each power is computed on its first lookup and kept for the identity's
    later ones: one move changes the exponent by at most one, so an
    identity looks up only a few distinct exponents.
    """

    __slots__ = ("a", "b", "lo", "hi")

    def __init__(self, q: Fraction, lo: int, hi: int):
        self.a, self.b = q.numerator, q.denominator
        self.lo, self.hi = lo, hi

    def __missing__(self, e: int) -> int:
        if not self.lo <= e <= self.hi:
            raise ArithmeticError(f"exponent {e} outside [{self.lo}, {self.hi}]")
        power = self[e] = self.a ** (e - self.lo) * self.b ** (self.hi - e)
        return power

    def exact(self, total: int, denominator: int) -> Fraction:
        """total * scale / denominator, as one Fraction made from ints."""
        if self.lo >= 0:
            return Fraction(total * self.a ** self.lo, denominator * self.b ** self.hi)
        return Fraction(total, denominator * self.a ** -self.lo * self.b ** self.hi)

    @property
    def scale(self) -> Fraction:
        return self.exact(1, 1)


class DualityReport:
    """One exact duality check: residual must be the rational zero.

    Each side is an int total over an int denominator, in units of the
    identity's q-power scale (`_QPowers.scale`), so the residual is decided
    by one int cross-multiplication.  The Fraction sides and the instance
    label are built when first read.
    """

    def __init__(self, where: tuple, pw: _QPowers, lhs_total: int, lhs_den: int,
                 rhs_total: int, rhs_den: int):
        # where = (kind, eta, x), eta a set of line sites or a segment (eta, n_ell)
        self._where, self._pw = where, pw
        self._lhs_total, self._lhs_den = lhs_total, lhs_den
        self._rhs_total, self._rhs_den = rhs_total, rhs_den

    @cached_property
    def instance(self) -> str:
        kind, eta, x = self._where
        if isinstance(eta, frozenset):
            return f"{kind} eta={sorted(eta)} x={x}"
        eta, n_ell = eta
        return f"{kind} eta={eta} N={n_ell} x={x}"

    @cached_property
    def lhs(self) -> Fraction:
        return self._pw.exact(self._lhs_total, self._lhs_den)

    @cached_property
    def rhs(self) -> Fraction:
        return self._pw.exact(self._rhs_total, self._rhs_den)

    def _gap(self) -> int:
        # the int (lhs - rhs) * lhs_den * rhs_den / scale
        return self._lhs_total * self._rhs_den - self._rhs_total * self._lhs_den

    @property
    def ok(self) -> bool:
        return self._gap() == 0

    @property
    def residual(self) -> Fraction:
        # equal sides, the affirmative case, need no Fraction at all
        gap = self._gap()
        return _ZERO if gap == 0 else self._pw.exact(gap, self._lhs_den * self._rhs_den)

    def __repr__(self) -> str:
        return f"DualityReport({self.instance!r}, lhs={self.lhs}, rhs={self.rhs})"

    def to_json(self) -> str:
        return json.dumps({
            "instance": self.instance,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "residual": str(self.residual),
            "ok": self.ok,
        }, sort_keys=True)


def _line_identity(kind: str, params: ModelParams, eta, x: Sequence[int],
                   low: Optional[int] = 1):
    """(eta, x, q-powers, integer rates) of one line identity at eta (a set
    of sites or an AsepState) and sites x, refusing an x outside the chamber
    and sites of either below low (None: no bound) or, for eta, off the
    integers.

    The q-power bounds: every state the identity reaches holds at most
    |eta| + 1 particles (one injected at site 1 or put on the fictitious
    site 0), so every N_{x_i} stays in [0, |eta| + 1].
    """
    eta = frozenset(getattr(eta, "occupied", eta))
    x = check_chamber(x, low)
    # a sum of ints is an int, so only a set holding other numbers is walked
    # (nan % 1 is nan)
    if eta and ((low is not None and min(eta) < low)
                or type(sum(eta)) is not int and any(s % 1 != 0 for s in eta)):
        bound = f" >= {low}" if low is not None else ""
        raise ValidityError(f"{kind} identity needs eta on integer sites{bound}, "
                            f"got eta={sorted(eta)}")
    return eta, x, _QPowers(params.q, 0, len(x) * (len(eta) + 1)), params.integer_rates


def verify_halfline_duality(params: ModelParams, eta, x: Sequence[int]) -> DualityReport:
    """Half-line generator vs killed dual generator applied to H; residual 0."""
    if not params.liggett_ok():
        raise ValidityError("half-line duality requires alpha/p + gamma/q = 1 "
                            "(use negative_control_no_liggett otherwise)")
    eta, x, pw, rates = _line_identity("halfline", params, eta, x)
    lhs = apply_generator(halfline_moves(rates, eta), lambda s: pw[h_exponent(s, x)], eta)
    rhs = apply_generator(dual_moves(rates, x, low=1), lambda y: pw[h_exponent(eta, y)], x,
                          dual_boundary_diagonal(rates, x))
    d = rates.denominator
    return DualityReport(("halfline", eta, x), pw, lhs, d, rhs, d)


def verify_fullspace_duality(params: ModelParams, eta, x: Sequence[int]) -> DualityReport:
    """Full-line generator vs n-particle dual generator; residual 0, no boundary condition."""
    eta, x, pw, rates = _line_identity("fullspace", params, eta, x, low=None)
    lhs = apply_generator(exclusion_moves(rates, eta), lambda s: pw[h_exponent(s, x)], eta)
    rhs = apply_generator(dual_moves(rates, x), lambda y: pw[h_exponent(eta, y)], x)
    d = rates.denominator
    return DualityReport(("fullspace", eta, x), pw, lhs, d, rhs, d)


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
    x = check_chamber(x, 1, params.ell)
    if len(eta) != params.ell - 1 or not set(eta) <= {0, 1}:
        raise ValidityError(f"segment identity needs a 0/1 eta of length ell - 1 = "
                            f"{params.ell - 1}, got eta={eta}")
    n = len(x)
    # a transition moves one particle and the through-count by at most one,
    # so every N_{x_i} stays in [n_ell - 1, len(eta) + n_ell + 1]
    pw = _QPowers(params.q, n * (n_ell - 1), n * (len(eta) + n_ell + 1))
    rates = params.integer_rates
    state = (eta, n_ell)
    lhs = apply_generator(segment_moves(rates, state),
                          lambda s: pw[h_exponent_segment(s[0], s[1], x)], state)
    rhs = apply_generator(dual_moves(rates, x, 1, params.ell),
                          lambda y: pw[h_exponent_segment(eta, n_ell, y)], x,
                          dual_segment_diagonal(rates, x))
    d = rates.denominator
    return DualityReport(("segment", state, x), pw, lhs, d, rhs, d)


@dataclass
class NegativeControlReport:
    """Behaviour of the half-line identity when the boundary condition fails.

    plain_report checks the half-line generator against the plain dual
    generator; for x_1 >= 2 it is the bulk report itself.
    """

    x: Tuple[int, ...]
    bulk_report: Optional[DualityReport]
    corrected_report: Optional[DualityReport]
    plain_report: DualityReport

    @property
    def plain_residual(self) -> Fraction:
        return self.plain_report.residual


def negative_control_no_liggett(params: ModelParams, eta,
                                x: Sequence[int]) -> NegativeControlReport:
    """Without alpha/p + gamma/q = 1: plain duality holds for x_1 >= 2 and a
    corrected identity holds for x_1 = 1.

    For x_1 = 1 the corrected right-hand side is
    (alpha q + gamma) H(eta; 2, x_2, ...) - (alpha + gamma) H(eta; 1, x_2, ...)
    + D^{(n-1)} H(eta; 1, x_2, ...) with the dual generator acting on the
    remaining coordinates (which may step outside the ordered chamber).
    """
    eta, x, pw, rates = _line_identity("no-liggett", params, eta, x)
    d = rates.denominator
    h = lambda y: pw[h_exponent(eta, y)]
    lhs = apply_generator(halfline_moves(rates, eta), lambda s: pw[h_exponent(s, x)], eta)
    plain = apply_generator(dual_moves(rates, x), h, x)

    if x[0] >= 2:
        rep = DualityReport(("no-liggett bulk", eta, x), pw, lhs, d, plain, d)
        return NegativeControlReport(x, rep, None, rep)

    tail = x[1:]
    corrected = (rates.corrected_hop * h((2,) + tail)
                 - rates.corrected_stay * h((1,) + tail))
    if tail:
        corrected += apply_generator(dual_moves(rates, tail), lambda y: h((1,) + y), tail)
    rep = DualityReport(("no-liggett corrected", eta, x), pw, lhs, d, corrected, d)
    return NegativeControlReport(x, None, rep,
                                 DualityReport(("no-liggett plain", eta, x), pw, lhs, d, plain, d))


def verify_fictitious_site(params: ModelParams, eta, x: Sequence[int]) -> DualityReport:
    """Boundary rates as an averaged extra site: L f = E_{eta_0~Bern(rho)}[L_closed f].

    Requires alpha/p + gamma/q = 1; f = H at the given sites.
    """
    if not params.liggett_ok():
        raise ValidityError("fictitious-site identity requires Liggett's condition")
    eta, x, pw, rates = _line_identity("fictitious", params, eta, x)
    h = lambda s: pw[h_exponent(s, x)]
    lhs = apply_generator(halfline_moves(rates, eta), h, eta)
    # the closed half line on sites 0, 1, ... with site 0 filled or, as in
    # eta (whose sites are >= 1), empty
    filled = eta | {0}
    # rho A + (1 - rho) B = (a A + (b - a) B) / b for rho = a / b
    a, b = params.rho.numerator, params.rho.denominator
    rhs = (a * apply_generator(exclusion_moves(rates, filled, 0), h, filled)
           + (b - a) * apply_generator(exclusion_moves(rates, eta, 0), h, eta))
    d = rates.denominator
    return DualityReport(("fictitious", eta, x), pw, lhs, d, rhs, d * b)


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

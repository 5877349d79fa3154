import itertools
import json
import sys
from fractions import Fraction as F

import pytest

from asep_lab import duality
from asep_lab.duality import (apply_generator, chamber_vectors, dual_boundary_diagonal,
                              dual_moves, dual_segment_diagonal, exclusion_moves,
                              exhaustive_states, halfline_moves, negative_control_no_liggett,
                              segment_moves, verify_fictitious_site, verify_fullspace_duality,
                              verify_halfline_duality, verify_segment_duality)
from asep_lab.model import (ChamberError, ModelParams, SegmentParams, ValidityError,
                            h_product, h_product_segment)
from asep_lab.segment_ode import occupancy_generator

PARAMS = ModelParams.from_density(1, F(1, 2), F(3, 4))


def test_generator_on_empty_state_injection_only():
    h = lambda s: h_product(s, (1,), PARAMS.q)
    val = apply_generator(halfline_moves(PARAMS, frozenset()), h, frozenset())
    assert val == PARAMS.alpha * (PARAMS.q - 1)


def test_killed_dual_at_boundary_site():
    q = PARAMS.q
    h = lambda y: h_product({2}, y, q)
    val = apply_generator(dual_moves(PARAMS, (1,), low=1), h, (1,),
                          dual_boundary_diagonal(PARAMS, (1,)))
    expected = PARAMS.q_rate * (h((2,)) - h((1,))) \
        - (PARAMS.p_rate - PARAMS.q_rate) * PARAMS.rho * h((1,))
    assert val == expected


def test_dual_transition_rates_read_off():
    moves = dual_moves(PARAMS, (3, 5))
    rates = sorted(r for r, _ in moves)
    assert rates == sorted([PARAMS.p_rate, PARAMS.p_rate, PARAMS.q_rate, PARAMS.q_rate])
    assert sorted(y for _, y in moves) == [(2, 5), (3, 4), (3, 6), (4, 5)]


def test_halfline_duality_single_instances():
    assert verify_halfline_duality(PARAMS, {2}, (1, 3)).residual == 0
    assert verify_halfline_duality(PARAMS, set(), (2, 5)).residual == 0


def test_halfline_duality_exhaustive_window():
    for eta in exhaustive_states(4):
        for n in (1, 2):
            for x in chamber_vectors(1, 5, n):
                assert verify_halfline_duality(PARAMS, eta, x).residual == 0


def test_halfline_requires_liggett():
    bad = ModelParams(1, F(1, 2), F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        verify_halfline_duality(bad, set(), (1,))


def test_fullspace_duality_includes_negative_sites():
    assert verify_fullspace_duality(PARAMS, {-2, 0, 3}, (-1, 2)).residual == 0
    assert verify_fullspace_duality(PARAMS, set(), (0, 4)).residual == 0
    for eta in exhaustive_states(4):
        for x in chamber_vectors(1, 5, 2):
            assert verify_fullspace_duality(PARAMS, eta, x).residual == 0


SEG = SegmentParams.from_densities(1, F(1, 2), F(3, 4), F(1, 3), 4)


def test_segment_duality_instances():
    assert verify_segment_duality(SEG, (1, 0, 1), 0, (1, 4)).residual == 0
    closed = SegmentParams.from_densities(1, F(1, 2), 0, 0, 4)
    assert verify_segment_duality(closed, (0, 1, 0), 0, (2, 3)).residual == 0


def test_segment_duality_exhaustive_small():
    for ell in (2, 3, 4):
        sp = SegmentParams.from_densities(1, F(1, 3), F(4, 5), F(1, 2), ell)
        for eta in itertools.product((0, 1), repeat=ell - 1):
            for n_ell in (0, 1):
                for n in range(1, min(2, ell) + 1):
                    for x in chamber_vectors(1, ell, n):
                        assert verify_segment_duality(sp, eta, n_ell, x).residual == 0


def test_segment_observable_scales_with_through_count():
    # both generator applications scale by q^{n k} in the through-count
    q, n = SEG.q, 2
    x = (1, 3)
    eta = (1, 0, 0)
    h_x = lambda s: h_product_segment(s[0], s[1], x, q)
    f0 = apply_generator(segment_moves(SEG, (eta, 0)), h_x, (eta, 0))
    dual_0 = apply_generator(dual_moves(SEG, x, 1, SEG.ell),
                             lambda y: h_product_segment(eta, 0, y, q), x,
                             dual_segment_diagonal(SEG, x))
    for k in (1, 2):
        fk = apply_generator(segment_moves(SEG, (eta, k)), h_x, (eta, k))
        dual_k = apply_generator(dual_moves(SEG, x, 1, SEG.ell),
                                 lambda y: h_product_segment(eta, k, y, q), x,
                                 dual_segment_diagonal(SEG, x))
        assert fk == q ** (n * k) * f0
        assert dual_k == q ** (n * k) * dual_0


def test_negative_control_matches_remark():
    bad = ModelParams(1, F(1, 3), F(1, 2), F(1, 2))
    assert not bad.liggett_ok()
    rep = negative_control_no_liggett(bad, {2}, (2, 4))
    assert rep.bulk_report.residual == 0
    rep = negative_control_no_liggett(bad, {2}, (1, 3))
    assert rep.corrected_report.residual == 0
    assert rep.plain_residual != 0
    rep = negative_control_no_liggett(bad, {1, 2}, (1, 2))
    assert rep.corrected_report.residual == 0
    assert rep.plain_residual != 0


def test_negative_control_window():
    bad = ModelParams(1, F(2, 5), F(1, 3), F(1, 4))
    for eta in exhaustive_states(4):
        for n in (1, 2):
            for x in chamber_vectors(1, 5, n):
                rep = negative_control_no_liggett(bad, eta, x)
                check = rep.bulk_report if x[0] >= 2 else rep.corrected_report
                assert check.residual == 0


def test_fictitious_site_identity():
    assert verify_fictitious_site(PARAMS, {2, 3}, (1, 2)).residual == 0
    assert verify_fictitious_site(PARAMS, set(), (1,)).residual == 0
    for eta in exhaustive_states(3):
        for x in chamber_vectors(1, 4, 2):
            assert verify_fictitious_site(PARAMS, eta, x).residual == 0


def test_occupancy_master_equation_conserves_mass():
    for ell in (2, 3, 4, 5):
        sp = SegmentParams.from_densities(1, F(1, 2), F(3, 4), F(1, 3), ell)
        states, A = occupancy_generator(sp)
        for j in range(len(states)):
            assert sum(A[i][j] for i in range(len(states))) == 0


# --- integer-encoded sides against the per-transition Fraction form ---------

def _reference_apply(moves, f, state, diagonal=0):
    """The per-transition sum rate * (f(new) - f(state)) plus the diagonal."""
    total = F(0)
    f0 = f(state)
    for rate, new in moves:
        total += rate * (f(new) - f0)
    if diagonal:
        total += diagonal * f0
    return total


def _reference_line(mode, params, eta, x):
    """(lhs, rhs) of one line identity with Fraction h_product observables."""
    q, eta, x = params.q, frozenset(eta), tuple(x)
    h_x = lambda s: h_product(s, x, q)
    h_eta = lambda y: h_product(eta, y, q)
    closed = lambda s: _reference_apply(exclusion_moves(params, s, 0), h_x, s)
    halfline = _reference_apply(halfline_moves(params, eta), h_x, eta)
    if mode == "halfline":
        return halfline, _reference_apply(dual_moves(params, x, low=1), h_eta, x,
                                          dual_boundary_diagonal(params, x))
    if mode == "fullspace":
        return (_reference_apply(exclusion_moves(params, eta), h_x, eta),
                _reference_apply(dual_moves(params, x), h_eta, x))
    if mode == "fictitious":
        return halfline, (params.rho * closed(eta | {0})
                          + (1 - params.rho) * closed(eta - {0}))
    plain = _reference_apply(dual_moves(params, x), h_eta, x)
    if x[0] >= 2:
        return halfline, plain, halfline - plain
    tail = x[1:]
    corrected = ((params.alpha * q + params.gamma) * h_eta((2,) + tail)
                 - (params.alpha + params.gamma) * h_eta((1,) + tail))
    if tail:
        corrected += _reference_apply(dual_moves(params, tail),
                                      lambda y: h_eta((1,) + tuple(y)), tail)
    return halfline, corrected, halfline - plain


def _assert_sides(rep, lhs, rhs):
    assert type(rep.lhs) is F and type(rep.rhs) is F
    assert (rep.lhs, rep.rhs) == (lhs, rhs)


LINE_VERIFIERS = {"halfline": verify_halfline_duality,
                  "fullspace": verify_fullspace_duality,
                  "fictitious": verify_fictitious_site}


def test_line_sides_equal_per_transition_reference():
    for params in (PARAMS, ModelParams.from_density(3, F(2, 3), F(5, 12))):
        for eta in exhaustive_states(4):
            for n in (1, 2, 3):
                for x in chamber_vectors(1, 5, n):
                    for mode, verify in LINE_VERIFIERS.items():
                        _assert_sides(verify(params, eta, x),
                                      *_reference_line(mode, params, eta, x))


def test_fullspace_sides_equal_reference_on_negative_sites():
    for eta in exhaustive_states(4):
        eta = frozenset(s - 3 for s in eta)  # sites -2..1
        for n in (1, 2):
            for x in chamber_vectors(-3, 2, n):
                _assert_sides(verify_fullspace_duality(PARAMS, eta, x),
                              *_reference_line("fullspace", PARAMS, eta, x))


def test_no_liggett_sides_equal_per_transition_reference():
    bad = ModelParams(1, F(2, 5), F(1, 3), F(1, 4))
    for eta in exhaustive_states(3):
        for n in (1, 2, 3):
            for x in chamber_vectors(1, 4, n):
                rep = negative_control_no_liggett(bad, eta, x)
                lhs, rhs, plain_residual = _reference_line("no-liggett", bad, eta, x)
                _assert_sides(rep.bulk_report or rep.corrected_report, lhs, rhs)
                assert type(rep.plain_residual) is F
                assert rep.plain_residual == plain_residual


def _reference_segment(sp, eta, n_ell, x):
    """(lhs, rhs) of one segment identity with Fraction h_product_segment observables."""
    q = sp.q
    return (_reference_apply(segment_moves(sp, (eta, n_ell)),
                             lambda s: h_product_segment(s[0], s[1], x, q), (eta, n_ell)),
            _reference_apply(dual_moves(sp, x, 1, sp.ell),
                             lambda y: h_product_segment(eta, n_ell, y, q), x,
                             dual_segment_diagonal(sp, x)))


def test_segment_sides_equal_per_transition_reference():
    for ell in (2, 3, 4):
        sp = SegmentParams.from_densities(2, F(3, 5), F(4, 5), F(1, 3), ell)
        for eta in itertools.product((0, 1), repeat=ell - 1):
            for n_ell in (0, 1, 3):
                for n in range(1, min(3, ell) + 1):
                    for x in chamber_vectors(1, ell, n):
                        _assert_sides(verify_segment_duality(sp, eta, n_ell, x),
                                      *_reference_segment(sp, eta, n_ell, x))


# rates whose denominators share no factor, so their common denominator D is
# far from 1: p = 7/3, q_rate = 5p/11, rho = 4/13, rho_ell = 2/9
P_COPRIME = F(7, 3)
Q_COPRIME = F(5, 11) * P_COPRIME


def test_line_sides_equal_reference_over_large_common_denominator():
    params = ModelParams.from_density(P_COPRIME, Q_COPRIME, F(4, 13))
    bad = ModelParams(P_COPRIME, Q_COPRIME, F(4, 13), F(2, 9))
    assert not bad.liggett_ok()
    assert params.integer_rates.denominator > 100 and bad.integer_rates.denominator > 100
    for eta in exhaustive_states(4):
        for n in (1, 2, 3):
            for x in chamber_vectors(1, 5, n):
                for mode, verify in LINE_VERIFIERS.items():
                    rep = verify(params, eta, x)
                    _assert_sides(rep, *_reference_line(mode, params, eta, x))
                    assert rep.ok
                rep = negative_control_no_liggett(bad, eta, x)
                lhs, rhs, plain_residual = _reference_line("no-liggett", bad, eta, x)
                _assert_sides(rep.bulk_report or rep.corrected_report, lhs, rhs)
                assert rep.plain_residual == plain_residual


def test_segment_sides_equal_reference_over_large_common_denominator():
    for ell in (2, 3, 4):
        sp = SegmentParams.from_densities(P_COPRIME, Q_COPRIME, F(4, 13), F(2, 9), ell)
        assert sp.integer_rates.denominator > 100
        for eta in itertools.product((0, 1), repeat=ell - 1):
            # n_ell = 0 puts the lowest exponent n (n_ell - 1) below zero
            for n_ell in (0, 1):
                for n in range(1, min(3, ell) + 1):
                    for x in chamber_vectors(1, ell, n):
                        rep = verify_segment_duality(sp, eta, n_ell, x)
                        _assert_sides(rep, *_reference_segment(sp, eta, n_ell, x))
                        assert rep.ok


def test_apply_generator_equals_reference_on_fraction_observable():
    q = PARAMS.q
    for eta in exhaustive_states(4):
        for x in chamber_vectors(1, 5, 2):
            h = lambda s: h_product(s, x, q)
            moves = halfline_moves(PARAMS, eta)
            got = apply_generator(moves, h, eta)
            assert type(got) is F
            assert got == _reference_apply(moves, h, eta)


def test_apply_generator_keeps_the_type_of_its_inputs():
    # Fraction params and observable give a Fraction, the IntegerRates view
    # and an int observable an int; the default diagonal 0 keeps either type,
    # also where no move changes the observable
    rates, x = PARAMS.integer_rates, (1, 3)
    h_frac = lambda y: h_product({2}, y, PARAMS.q)
    h_int = lambda y: 5 ** sum(s >= 2 for s in y)
    cases = ((PARAMS, h_frac, F), (PARAMS, lambda y: F(7), F),
             (rates, h_int, int), (rates, lambda y: 7, int))
    for params, f, kind in cases:
        moves = dual_moves(params, x, low=1)
        for diagonal in ((), (dual_boundary_diagonal(params, x),)):
            assert type(apply_generator(moves, f, x, *diagonal)) is kind
        assert apply_generator(moves, f, x) == apply_generator(moves, f, x, 0)
        assert apply_generator(moves, f, x) == _reference_apply(moves, f, x)
    eta = frozenset({2})
    assert type(apply_generator(halfline_moves(rates, eta), lambda s: 5 ** len(s), eta)) is int


def test_integer_q_powers_scale_back_and_raise_outside_bounds():
    from asep_lab.duality import _QPowers
    for q, lo, hi in ((F(1, 2), 0, 6), (F(3, 7), -3, 4)):
        pw = _QPowers(q, lo, hi)
        for e in range(lo, hi + 1):
            assert type(pw[e]) is int
            assert pw[e] * pw.scale == q ** e
        for e in (lo - 1, hi + 1):
            with pytest.raises(ArithmeticError):
                pw[e]


def test_params_compare_hash_and_pickle_by_fields_only():
    import pickle
    makers = (lambda: ModelParams.from_density(1, F(1, 2), F(3, 4)),
              lambda: SegmentParams.from_densities(1, F(1, 3), F(4, 5), F(1, 2), 4))
    for make in makers:
        fresh, used = make(), make()
        derived = [used.q, used.rho, used.liggett_ok(), vars(used.integer_rates)]
        if isinstance(used, SegmentParams):
            derived += [used.rho0, used.rho_ell, used.liggett2_ok()]
        assert fresh == used and hash(fresh) == hash(used) and repr(fresh) == repr(used)
        assert pickle.dumps(fresh) == pickle.dumps(used)
        back = pickle.loads(pickle.dumps(used))
        assert back == fresh and hash(back) == hash(fresh)
        again = [back.q, back.rho, back.liggett_ok(), vars(back.integer_rates)]
        if isinstance(back, SegmentParams):
            again += [back.rho0, back.rho_ell, back.liggett2_ok()]
        assert again == derived


def _bond_moves(params, eta, low=None):
    """Exclusion moves listed bond by bond: each bond (x, x+1), x >= low, with
    a particle on exactly one end, in increasing x."""
    out = []
    for x in range(min(eta) - 1, max(eta) + 1) if eta else ():
        if low is not None and x < low:
            continue
        if x in eta and x + 1 not in eta:
            out.append((params.p_rate, (eta - {x}) | {x + 1}))
        elif x + 1 in eta and x not in eta:
            out.append((params.q_rate, (eta - {x + 1}) | {x}))
    return out


def test_exclusion_moves_come_in_bond_order():
    for eta in exhaustive_states(6):
        for shift in (-3, 0):
            moved = frozenset(s + shift for s in eta)
            for low in (None, -1, 0, 1, 2):
                assert exclusion_moves(PARAMS, moved, low) == _bond_moves(PARAMS, moved, low)


# --- refusals outside each identity, and a failing identity ----------------

BAD = ModelParams(1, F(1, 3), F(1, 2), F(1, 2))  # alpha/p + gamma/q != 1


@pytest.mark.parametrize("call, error, named", [
    # x must be nonempty and strictly increasing, in every mode
    (lambda: verify_halfline_duality(PARAMS, {2}, ()), ChamberError, "x=()"),
    (lambda: verify_halfline_duality(PARAMS, {2}, (2, 2)), ChamberError, "x=(2, 2)"),
    (lambda: verify_fullspace_duality(PARAMS, {2}, (3, 1)), ChamberError, "x=(3, 1)"),
    (lambda: verify_fictitious_site(PARAMS, {2}, (4, 2)), ChamberError, "x=(4, 2)"),
    (lambda: negative_control_no_liggett(BAD, {2}, ()), ChamberError, "x=()"),
    (lambda: verify_segment_duality(SEG, (1, 0, 1), 0, (3, 2)), ChamberError, "x=(3, 2)"),
    # x_1 >= 1 on the half line and the segment, x_n <= ell on the segment
    (lambda: verify_halfline_duality(PARAMS, {2}, (0, 3)), ChamberError, "x=(0, 3)"),
    (lambda: verify_fictitious_site(PARAMS, {2}, (0,)), ChamberError, "x=(0,)"),
    (lambda: negative_control_no_liggett(BAD, {2}, (-1, 2)), ChamberError, "x=(-1, 2)"),
    (lambda: verify_segment_duality(SEG, (1, 0, 1), 0, (0, 2)), ChamberError, "x=(0, 2)"),
    (lambda: verify_segment_duality(SEG, (1, 0, 1), 0, (2, 5)), ChamberError, "x=(2, 5)"),
    # a half-line eta holds sites >= 1 only
    (lambda: verify_halfline_duality(PARAMS, {0, 2}, (1,)), ValidityError, "eta=[0, 2]"),
    (lambda: verify_fictitious_site(PARAMS, {0}, (1,)), ValidityError, "eta=[0]"),
    (lambda: negative_control_no_liggett(BAD, {-1, 3}, (2,)), ValidityError, "eta=[-1, 3]"),
    # a segment eta is 0/1 of length ell - 1
    (lambda: verify_segment_duality(SEG, (2, 0, 1), 0, (1, 2)), ValidityError, "eta=(2, 0, 1)"),
    (lambda: verify_segment_duality(SEG, (1, 0), 0, (1, 2)), ValidityError, "eta=(1, 0)"),
    (lambda: verify_segment_duality(SEG, (1, 0, 1, 0), 0, (1, 2)), ValidityError,
     "eta=(1, 0, 1, 0)"),
])
def test_verifiers_refuse_input_outside_their_identity(call, error, named):
    # each of these used to return a nonzero residual or raise IndexError
    with pytest.raises(error) as info:
        call()
    assert named in str(info.value)


def _truncate(monkeypatch, name):
    """Drop the last move of duality's `name` move function, for the verifiers
    and for this module's per-transition reference alike."""
    moves = getattr(duality, name)
    truncated = lambda *args, **kwargs: moves(*args, **kwargs)[:-1]
    monkeypatch.setattr(duality, name, truncated)
    monkeypatch.setattr(sys.modules[__name__], name, truncated)


def _assert_fails_as_reference(rep, lhs, rhs):
    assert lhs != rhs
    assert rep.ok is False
    assert type(rep.residual) is F and rep.residual == lhs - rhs
    _assert_sides(rep, lhs, rhs)
    assert json.loads(rep.to_json())["ok"] is False


# the fictitious-site identity has no dual, so its closed-line moves are cut instead
@pytest.mark.parametrize("mode, eta, x, truncated", [
    ("halfline", {2}, (1, 2), "dual_moves"),
    ("fullspace", {2}, (1, 2), "dual_moves"),
    ("fictitious", set(), (1, 2), "exclusion_moves"),
])
def test_a_failing_line_identity_still_fails(mode, eta, x, truncated, monkeypatch):
    _truncate(monkeypatch, truncated)
    rep = LINE_VERIFIERS[mode](PARAMS, eta, x)
    _assert_fails_as_reference(rep, *_reference_line(mode, PARAMS, eta, x))


def test_a_failing_segment_identity_still_fails(monkeypatch):
    _truncate(monkeypatch, "dual_moves")
    for n_ell in (0, 2):
        rep = verify_segment_duality(SEG, (1, 0, 1), n_ell, (1, 3))
        _assert_fails_as_reference(rep, *_reference_segment(SEG, (1, 0, 1), n_ell, (1, 3)))


def test_a_failing_corrected_identity_still_fails(monkeypatch):
    _truncate(monkeypatch, "dual_moves")
    rep = negative_control_no_liggett(BAD, {2}, (1, 2))
    lhs, rhs, plain_residual = _reference_line("no-liggett", BAD, {2}, (1, 2))
    _assert_fails_as_reference(rep.corrected_report, lhs, rhs)
    assert type(rep.plain_residual) is F and rep.plain_residual == plain_residual


@pytest.mark.parametrize("failing", [False, True])
def test_residual_reads_the_same_before_or_after_the_sides(failing, monkeypatch):
    if failing:
        _truncate(monkeypatch, "dual_moves")
    makers = (lambda: verify_halfline_duality(PARAMS, {2, 3}, (1, 3)),
              lambda: verify_fictitious_site(PARAMS, set(), (1, 2)),
              lambda: verify_segment_duality(SEG, (1, 0, 1), 0, (1, 3)),
              lambda: negative_control_no_liggett(BAD, {2}, (1, 2)).corrected_report)
    for make in makers:
        rep = make()
        first = (rep.residual, rep.lhs, rep.rhs)
        rep = make()
        lhs, rhs = rep.lhs, rep.rhs
        second = (rep.residual, lhs, rhs)
        assert first == second
        assert [type(v) for v in first] == [type(v) for v in second] == [F, F, F]

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st

from asep_lab.duality import verify_halfline_duality
from asep_lab.model import (AsepState, ChamberError, ModelParams, SegmentParams,
                            SegmentState, ValidityError, as_fraction, check_chamber, current,
                            current_segment, h_exponent_segment, observable_h,
                            observable_h_segment)
from asep_lab.simulate import SimConfig, dual_reweighted_estimate


def test_as_fraction_decimal_semantics():
    assert as_fraction(0.9) == F(9, 10)
    assert as_fraction("3/4") == F(3, 4)
    assert as_fraction(2) == F(2)


@pytest.mark.parametrize("bad", ["1/0", "abc", "", float("nan"), float("inf")])
def test_as_fraction_rejects_malformed_rationals(bad):
    with pytest.raises(ValidityError):
        as_fraction(bad)


def test_liggett_is_exact():
    p = ModelParams(1, F(1, 2), F(3, 4), F(1, 8))
    assert p.liggett_ok()
    q = ModelParams(1, F(1, 2), F(3, 4), F(1, 8) + F(1, 10 ** 12))
    assert not q.liggett_ok()


def test_from_density_satisfies_liggett():
    p = ModelParams.from_density(2, F(1, 3), F(5, 7))
    assert p.liggett_ok()
    assert p.rho == F(5, 7)


def test_asymmetry_must_be_in_unit_interval():
    with pytest.raises(ValidityError):
        ModelParams(1, 1, F(1, 2), F(1, 2))
    with pytest.raises(ValidityError):
        ModelParams(1, F(3, 2), F(1, 2), F(1, 2))


def test_formula_ok_boundary():
    # threshold is 1/(1 + sqrt(q)); for q = 1/4 that is 2/3 exactly
    assert ModelParams.from_density(1, F(1, 4), F(2, 3) + F(1, 1000)).formula_ok()
    assert not ModelParams.from_density(1, F(1, 4), F(2, 3)).formula_ok()
    assert ModelParams.from_density(1, F(1, 4), 1).formula_ok()


def test_segment_liggett_both_sides():
    sp = SegmentParams.from_densities(1, F(1, 2), F(3, 4), F(1, 3), 4)
    assert sp.liggett2_ok()
    assert sp.rho0 == F(3, 4) and sp.rho_ell == F(1, 3)
    bad = SegmentParams(1, F(1, 2), F(3, 4), F(1, 8), ell=4, beta=F(1, 2), delta=F(1, 2))
    assert not bad.liggett2_ok()


def test_current_examples():
    assert current(AsepState.empty(), 3) == 0
    assert current(AsepState({2, 5, 7}), 5) == 2
    assert current(AsepState({1}), 1) == 1


def test_observable_examples():
    assert observable_h(AsepState.empty(), (1, 4), 0.5) == 1
    assert observable_h(AsepState({2}), (1, 2), 0.5) == 0.25
    assert observable_h(AsepState({1, 4}), (2,), 0.5) == 0.5
    assert observable_h(AsepState({2}), (1, 2), F(1, 2)) == F(1, 4)


def test_chamber_violations():
    with pytest.raises(ChamberError):
        observable_h(AsepState.empty(), (2, 2), 0.5)
    with pytest.raises(ChamberError):
        observable_h(AsepState.empty(), (0, 3), 0.5)
    with pytest.raises(ChamberError):
        observable_h_segment(SegmentState.empty(4), (1, 5), 0.5)


HALF = ModelParams.from_density(1, F(1, 2), F(3, 4))
SEGMENT = SegmentParams.from_densities(1, F(1, 2), F(3, 4), F(1, 3), 6)


@pytest.mark.parametrize("call", [
    lambda: SimConfig(HALF, 1.0, 10, seed=0, observables=((1.9,),)),
    lambda: dual_reweighted_estimate(SEGMENT, (1.2, 3.7), 1.0, 10, seed=0),
    lambda: observable_h(AsepState({2}), (1.5,), 0.5),
    lambda: observable_h(AsepState({2}), (math.nan,), 0.5),
    lambda: observable_h_segment(SegmentState.empty(6), (2, 4.5), 0.5),
    lambda: verify_halfline_duality(HALF, {2}, (1.5, 3)),
], ids=["simulate-observable", "dual-reweighted", "observable", "observable-nan",
        "segment-observable", "verify"])
def test_non_integer_site_is_refused(call):
    # each used to run at the truncated sites, or fail outside ChamberError
    with pytest.raises(ChamberError, match="integer sites"):
        call()


def test_check_chamber_reads_integral_sites_as_ints():
    xs = check_chamber((np.int64(1), 3.0, np.float64(4), F(6)), 1, 6)
    assert xs == (1, 3, 4, 6) and all(type(v) is int for v in xs)
    assert check_chamber([-2, 0], None) == (-2, 0)
    with pytest.raises(ChamberError, match=r"x=\(-2, 0\)"):
        check_chamber((-2, 0))


def test_segment_exponent_equals_the_per_site_sum():
    # any sites: unsorted, repeated, below 1 or past ell - 1
    for ell in range(2, 8):
        sites = range(-1, ell + 2)
        xs = [x for k in range(4) for x in itertools.product(sites, repeat=k)]
        for eta in itertools.product((0, 1), repeat=ell - 1):
            suffix = [sum(eta[max(s - 1, 0):]) for s in sites]
            for x in xs:
                base = sum(suffix[s + 1] for s in x)
                for n_ell in (-2, 0, 1, 3):
                    assert h_exponent_segment(eta, n_ell, x) == base + len(x) * n_ell


def test_segment_current_counts_sites_at_or_right_of_x_plus_through_count():
    state = SegmentState((1, 0, 1, 1), 2)  # ell = 5
    assert [current_segment(state, x) for x in (1, 2, 3, 4, 5)] == [5, 4, 4, 3, 2]
    assert current_segment(SegmentState.empty(5), 1) == 0


def test_segment_observable_examples():
    assert observable_h_segment(SegmentState.empty(5), (1, 3), 0.5) == 1
    assert observable_h_segment(SegmentState((0, 0, 0, 0), 2), (5,), 0.5) == 0.25
    assert observable_h_segment(SegmentState((1, 0, 0, 0), -1), (1,), 0.5) == 1


occupied_sets = st.frozensets(st.integers(min_value=1, max_value=12), max_size=6)


@given(occupied_sets, st.integers(min_value=1, max_value=12))
def test_current_monotone_step(occ, x):
    state = AsepState(occ)
    n_here, n_next = current(state, x), current(state, x + 1)
    assert n_next <= n_here <= n_next + 1


@given(occupied_sets, st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=3))
def test_observable_in_unit_interval(occ, start, length):
    x = tuple(range(start, start + length))
    val = observable_h(AsepState(occ), x, F(1, 2))
    assert 0 < val <= 1
    assert (val == 1) == all(current(AsepState(occ), xi) == 0 for xi in x)

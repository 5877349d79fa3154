import math
import os
from fractions import Fraction as F

import numpy as np
import pytest

from asep_lab.model import (ChamberError, ModelParams, SegmentParams, SegmentState,
                            ValidityError)
from asep_lab.moments import first_moment
from asep_lab import simulate
from asep_lab.segment_ode import solve_u, stationary_distribution
from asep_lab.simulate import (SimConfig, dual_reweighted_estimate, estimate,
                               simulate_halfline, simulate_segment)

PARAMS = ModelParams.from_density(1, F(1, 2), F(9, 10))


def test_time_zero_is_empty():
    cfg = SimConfig(PARAMS, 0.0, 50, seed=1, observables=((1, 2),))
    states = simulate_halfline(cfg)
    assert all(not s.occupied for s in states)
    est = estimate(cfg)[0]
    assert est.mean == 1.0 and est.std_error == 0.0


def test_no_injection_stays_empty():
    # alpha = 0 under Liggett forces gamma = q_rate
    params = ModelParams.from_density(1, F(1, 2), 0)
    cfg = SimConfig(params, 5.0, 30, seed=2)
    assert all(not s.occupied for s in simulate_halfline(cfg))


def test_seed_reproducibility():
    cfg = SimConfig(PARAMS, 1.5, 400, seed=33, observables=((2,), (1, 3)))
    a = estimate(cfg)
    b = estimate(cfg)
    assert all(x.mean == y.mean and x.std_error == y.std_error for x, y in zip(a, b))


def test_thread_count_does_not_change_results():
    cfg = SimConfig(PARAMS, 1.0, 200, seed=5, observables=((2,),))
    serial = estimate(cfg, threads=1)
    parallel = estimate(cfg, threads=2)
    assert serial[0].mean == parallel[0].mean


def test_empty_observable_is_constant_one():
    cfg = SimConfig(PARAMS, 1.0, 25, seed=9, observables=((),))
    est = estimate(cfg)[0]
    assert est.mean == 1.0 and est.std_error == 0.0


def test_standard_error_scaling():
    base = SimConfig(PARAMS, 1.0, 2000, seed=11, observables=((1,),))
    double = SimConfig(PARAMS, 1.0, 4000, seed=11, observables=((1,),))
    se1 = estimate(base)[0].std_error
    se2 = estimate(double)[0].std_error
    ratio = se2 / se1
    assert 0.8 / math.sqrt(2) < ratio < 1.2 / math.sqrt(2)


def test_estimates_stay_in_unit_interval():
    cfg = SimConfig(PARAMS, 2.0, 500, seed=21, observables=((1,), (2, 4)))
    for est in estimate(cfg):
        assert 0.0 <= est.mean <= 1.0
        assert est.std_error >= 0.0


def test_halfline_against_exact_formula():
    cfg = SimConfig(PARAMS, 2.0, 20000, seed=42, observables=((2,),))
    est = estimate(cfg)[0]
    exact = first_moment(2.0, 2, PARAMS)
    assert abs(est.mean - exact) <= 4 * est.std_error


SEG = SegmentParams.from_densities(1, F(1, 2), F(3, 4), F(1, 3), 4)


def test_segment_time_zero():
    cfg = SimConfig(SEG, 0.0, 20, seed=3)
    states = simulate_segment(cfg)
    assert all(s.eta == (0, 0, 0) and s.n_ell == 0 for s in states)


def test_closed_right_boundary_keeps_through_count_zero():
    closed_right = SegmentParams(1, F(1, 2), F(3, 4), F(1, 8), ell=4,
                                 beta=0, delta=0)
    cfg = SimConfig(closed_right, 3.0, 50, seed=4)
    assert all(s.n_ell == 0 for s in simulate_segment(cfg))


def test_segment_against_matrix_ode():
    cfg = SimConfig(SEG, 1.0, 20000, seed=7, observables=((1, 2), (2, 4)))
    sol = solve_u(1.0, SegmentState.empty(4), SEG, 2)
    for est in estimate(cfg):
        exact = sol.value(est.observable)
        assert abs(est.mean - exact) <= 4 * est.std_error


def test_dual_reweighted_estimator_matches_ode():
    sol = solve_u(1.0, SegmentState.empty(4), SEG, 2)
    est = dual_reweighted_estimate(SEG, (1, 3), 1.0, 20000, seed=13)
    assert abs(est.mean - sol.value((1, 3))) <= 4 * est.std_error
    # and its output bits at this seed
    assert est.mean.hex() == "0x1.7b99be7b7e5f5p-1"
    assert est.std_error.hex() == "0x1.40da1af3db801p-11"


@pytest.mark.parametrize("x0, t_end, trajectories, error", [
    ((1, 3), float("nan"), 10, ValidityError),  # would never stop the event loop
    ((1, 3), -1.0, 10, ValidityError),          # negative time
    ((1, 3), 1.0, 0, ValidityError),            # nothing to average
    ((3, 1), 1.0, 10, ChamberError),            # not increasing
    ((1, 9), 1.0, 10, ChamberError),            # beyond ell = 4
])
def test_dual_reweighted_estimate_rejects_bad_input(x0, t_end, trajectories, error):
    with pytest.raises(error):
        dual_reweighted_estimate(SEG, x0, t_end, trajectories, seed=13)


def test_dual_reweighted_estimate_rejects_initial_state_of_another_segment():
    # a 7-bit state belongs to ell = 8; on ell = 4 it was read as the segment's own
    assert SEG.ell == 4
    with pytest.raises(ValidityError):
        dual_reweighted_estimate(SEG, (1, 3), 1.0, 10, seed=13,
                                 initial=SegmentState((1,) * 7, 0))
    est = dual_reweighted_estimate(SEG, (1, 3), 1.0, 10, seed=13,
                                   initial=SegmentState((1, 0, 1), 0))
    assert 0 < est.mean


def test_segment_empirical_distribution_reaches_stationarity():
    sp = SegmentParams.from_densities(1, F(1, 2), F(3, 4), F(1, 3), 3)
    pi = stationary_distribution(sp)
    cfg = SimConfig(sp, 8.0, 100000, seed=17)
    counts = {}
    for s in simulate_segment(cfg):
        counts[s.eta] = counts.get(s.eta, 0) + 1
    tv = 0.5 * sum(abs(counts.get(state, 0) / cfg.trajectories - prob)
                   for state, prob in pi.items())
    assert tv < 0.01


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(PARAMS, -1.0, 10, seed=0)
    with pytest.raises(ValueError):
        SimConfig(PARAMS, 1.0, 0, seed=0)
    with pytest.raises(TypeError):
        simulate_segment(SimConfig(PARAMS, 1.0, 1, seed=0))


def test_halfline_simulation_refuses_segment_params():
    # it used to run half-line dynamics with the segment's rates, past site ell
    with pytest.raises(TypeError):
        simulate_halfline(SimConfig(SEG, 2.0, 3, seed=1))


def _reference_events(bits, count):
    """`count` events read off a bit generator: a clock -log1p(-U), then a pick U."""
    u = np.random.Generator(bits).random(2 * count).tolist()
    return [(-math.log1p(-c), pick) for c, pick in zip(u[0::2], u[1::2])]


def _events(draws, count):
    return [(draws.exponential(), draws.uniform()) for _ in range(count)]


def test_rows_are_fixed_positions_of_the_seed_stream():
    # trajectory i's first K events are draws [2K i, 2K (i+1)) of the seed's stream
    k = simulate._K
    streams = simulate._Streams(2024, 100_000)
    for i in (0, 1, 7, simulate._BLOCK - 1, simulate._BLOCK, 99_999):
        bits = np.random.PCG64DXSM(np.random.SeedSequence(2024))
        bits.advance(2 * k * i)
        draws = simulate._Draws(simulate._rng_for(streams, i), streams, i)
        # clocks are the C library's -log1p(-U), bit for bit
        assert _events(draws, k) == _reference_events(bits, k)


def test_overflowing_trajectory_continues_on_its_jumped_stream():
    k, i = simulate._K, 7
    streams = simulate._Streams(2024, 20)
    draws = simulate._Draws(simulate._rng_for(streams, i), streams, i)
    events = _events(draws, 3 * k)
    jumped = np.random.PCG64DXSM(np.random.SeedSequence(2024)).jumped(i + 1)
    assert events[k:] == _reference_events(jumped, 2 * k)


class _EventCountingDraws(simulate._Draws):
    events = []

    def __init__(self, *args):
        super().__init__(*args)
        self.events.append(0)

    def exponential(self):
        self.events[-1] += 1
        return super().exponential()


def _halfline_finals(params, t_end, seed, start, stop):
    return list(simulate._finals(*simulate._loop(params, False), t_end, seed, start, stop))


def _segment_finals(params, t_end, seed, start, stop):
    return list(simulate._finals(*simulate._loop(params, True), t_end, seed, start, stop))


@pytest.mark.parametrize("finals, params, t", [
    (_halfline_finals, PARAMS, 8.0),
    (_segment_finals, SEG, 8.0),
])
def test_trajectory_does_not_depend_on_earlier_ones(monkeypatch, finals, params, t):
    monkeypatch.setattr(simulate, "_Draws", _EventCountingDraws)
    _EventCountingDraws.events = []
    block = simulate._BLOCK
    full = finals(params, t, 31, 0, block + 12)
    assert finals(params, t, 31, 5, 12) == full[5:12]
    # a chunk that starts mid-block and crosses the full run's first block boundary
    _EventCountingDraws.events = []
    assert finals(params, t, 31, block - 5, block + 12) == full[block - 5:]
    assert max(_EventCountingDraws.events) > simulate._K  # some row in it overflowed


def test_segment_thread_count_does_not_change_results():
    cfg = SimConfig(SEG, 1.0, 200, seed=5, observables=((1, 2), (3,)))
    assert estimate(cfg, threads=1) == estimate(cfg, threads=2)


class _InlinePool:
    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return [fn(job) for job in jobs]


def test_worker_pool_is_bounded_by_cpus_and_trajectories(monkeypatch):
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
    _InlinePool.max_workers = []
    cfg = SimConfig(PARAMS, 1.0, 10, seed=8, observables=((2,),))
    serial = estimate(cfg, threads=1)
    assert estimate(cfg, threads=5000) == serial
    small = SimConfig(PARAMS, 1.0, 2, seed=8, observables=((2,),))
    assert estimate(small, threads=5000) == estimate(small, threads=1)
    assert _InlinePool.max_workers == [3, 2]


def test_usable_cpus_is_positive():
    assert 1 <= simulate._usable_cpus() <= (os.cpu_count() or 1)

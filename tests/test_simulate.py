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


# float.hex of the mean and standard error at 20,000 trajectories, seed 13,
# recorded when these initial states were first checked against the ODE
PINNED_DUAL_FROM_STATE = {
    (1, 0, 1): ("0x1.198ae85b26149p-3", "0x1.5404859797e49p-11"),
    (0, 1, 1): ("0x1.8e229abe40112p-4", "0x1.f655c7aad2a30p-12"),
}


@pytest.mark.parametrize("eta", sorted(PINNED_DUAL_FROM_STATE))
def test_dual_reweighted_estimate_from_a_nonempty_state(eta):
    exact = solve_u(1.0, SegmentState(eta, 0), SEG, 2).value((1, 3))
    est = dual_reweighted_estimate(SEG, (1, 3), 1.0, 20000, seed=13,
                                   initial=SegmentState(eta, 0))
    assert abs(est.mean - exact) <= 4 * est.std_error
    assert (est.mean.hex(), est.std_error.hex()) == PINNED_DUAL_FROM_STATE[eta]
    # a through-count N adds N to both exponents of H at x0 = (1, 3), so the
    # estimate scales by q^2N, exactly 1/4 at q = 1/2 and N = 1
    shifted = dual_reweighted_estimate(SEG, (1, 3), 1.0, 20000, seed=13,
                                       initial=SegmentState(eta, 1))
    assert SEG.q == F(1, 2)
    assert shifted.mean == est.mean / 4 and shifted.std_error == est.std_error / 4


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


@pytest.mark.parametrize("walk", ["halfline", "segment", "dual"])
def test_run_above_the_work_cap_is_refused_before_any_block(walk, monkeypatch):
    # at t_end = 1e300 each walk ran on until it was stopped by hand
    def no_block(*args):
        raise AssertionError("a block ran")

    monkeypatch.setattr(simulate, "_run_open", no_block)
    with pytest.raises(ValidityError, match="above the cap"):
        if walk == "dual":
            dual_reweighted_estimate(SEG, (1, 3), 1e300, 10, seed=1)
        else:
            estimate(SimConfig(PARAMS if walk == "halfline" else SEG, 1e300, 10, seed=1,
                               observables=((1,),)))


def test_work_cap_counts_the_events_bound_of_each_trajectory():
    bound = SimConfig(PARAMS, 2.0, 1, seed=0).events_bound()
    alpha, gamma = float(PARAMS.alpha), float(PARAMS.gamma)
    assert bound == max(alpha, gamma) * 2.0 + 1.5 * alpha * 2.0
    # the segment's bound covers its walk and the dual's: ell - 1 = 3 bonds at max(p, q) = 1
    rates = max(float(SEG.alpha), float(SEG.gamma)) + max(float(SEG.beta), float(SEG.delta))
    assert SimConfig(SEG, 2.0, 1, seed=0).events_bound() == (rates + 3) * 2.0
    most = simulate.MAX_SIMULATION_WORK // math.ceil(bound)
    SimConfig(PARAMS, 2.0, most, seed=0)
    with pytest.raises(ValidityError, match="above the cap"):
        SimConfig(PARAMS, 2.0, 2 * most, seed=0)
    # one trajectory to t = 1,000 bounds 6.8e5 events, but below 256 trajectories
    # a lockstep step costs about the same, so the cap counts 256 of them
    with pytest.raises(ValidityError, match="above the cap"):
        SimConfig(PARAMS, 1000.0, 1, seed=0)


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
    # a negative seed used to reach numpy's SeedSequence and fail there
    with pytest.raises(ValidityError):
        SimConfig(PARAMS, 1.0, 10, seed=-1)
    with pytest.raises(ValidityError):
        dual_reweighted_estimate(SEG, (1, 3), 1.0, 10, seed=-1)
    with pytest.raises(TypeError):
        simulate_segment(SimConfig(PARAMS, 1.0, 1, seed=0))
    # an observable is a chamber vector, up to ell on the segment, or ()
    for params, obs in ((PARAMS, (3, 1)), (PARAMS, (0,)), (SEG, (5,))):
        with pytest.raises(ChamberError):
            SimConfig(params, 1.0, 1, seed=0, observables=(obs,))
    assert SimConfig(SEG, 1.0, 1, seed=0, observables=((), (4,))).observables == ((), (4,))


def test_halfline_simulation_refuses_segment_params():
    # it used to run half-line dynamics with the segment's rates, past site ell
    with pytest.raises(TypeError):
        simulate_halfline(SimConfig(SEG, 2.0, 3, seed=1))


def _reference_events(bits, count):
    """`count` events read off a bit generator: a clock -log1p(-U), then a pick U."""
    u = np.random.Generator(bits).random(2 * count).tolist()
    return [(-math.log1p(-c), pick) for c, pick in zip(u[0::2], u[1::2])]


def _block_draws(streams, first):
    return simulate._Draws(streams, first, simulate._rng_for(streams, first))


def _events(draws, row, count):
    """Row `row`'s first `count` events of a block's draws, with every trajectory running."""
    return [(draws.exponential()[row].item(), draws.uniform()[row].item())
            for _ in range(count)]


def test_rows_are_fixed_positions_of_the_seed_stream():
    # trajectory i's first K events are draws [2K i, 2K (i+1)) of the seed's stream
    k, block = simulate._K, simulate._BLOCK
    streams = simulate._Streams(2024, 100_000)
    for i in (0, 1, 7, block - 1, block, 99_999):
        bits = np.random.PCG64DXSM(np.random.SeedSequence(2024))
        bits.advance(2 * k * i)
        draws = _block_draws(streams, i - i % block)
        # clocks are the C library's -log1p(-U), bit for bit
        assert _events(draws, i % block, k) == _reference_events(bits, k)


def test_overflowing_trajectory_continues_on_its_jumped_stream():
    k, i = simulate._K, 7
    streams = simulate._Streams(2024, 20)
    events = _events(_block_draws(streams, 0), i, 3 * k)
    jumped = np.random.PCG64DXSM(np.random.SeedSequence(2024)).jumped(i + 1)
    assert events[k:] == _reference_events(jumped, 2 * k)


@pytest.fixture
def overflowed(monkeypatch):
    """The trajectories that turn to their overflow streams, in the order they do."""
    indices = []
    overflow = simulate._Streams.overflow

    def recording_overflow(streams, index):
        indices.append(index)
        return overflow(streams, index)

    monkeypatch.setattr(simulate._Streams, "overflow", recording_overflow)
    return indices


def _halfline_finals(params, t_end, seed, start, stop):
    """Final occupied sites of trajectories start, ..., stop - 1, run in lockstep blocks."""
    return [frozenset((np.flatnonzero(row) + 1).tolist())
            for eta, _ in simulate._blocks(*simulate._loop(params), t_end, seed, start, stop)
            for row in eta]


def _dual_rates(params, x0):
    """_run_dual's arguments before t_end: the walk from x0 on params' segment."""
    return (params.ell, float(params.p_rate), float(params.q_rate), float(params.rho0),
            float(params.rho_ell), x0)


def _dual_finals(params, t_end, seed, start, stop, x0=(1, 3)):
    """Final sites and weight of dual trajectories start, ..., stop - 1 from x0, in lockstep."""
    return [(tuple((np.flatnonzero(eta) + 1).tolist()), weight)
            for block in simulate._blocks(simulate._run_dual, _dual_rates(params, x0), t_end,
                                          seed, start, stop)
            for eta, weight in zip(block[0], block[1].tolist())]


@pytest.mark.parametrize("finals, params, t", [
    (_halfline_finals, PARAMS, 8.0),
    (_dual_finals, SEG, 8.0),
])
def test_trajectory_does_not_depend_on_earlier_ones(overflowed, finals, params, t):
    block = simulate._BLOCK
    full = finals(params, t, 31, 0, block + 12)
    assert finals(params, t, 31, 5, 12) == full[5:12]
    # a chunk that starts mid-block and crosses the full run's first block boundary
    overflowed.clear()
    assert finals(params, t, 31, block - 5, block + 12) == full[block - 5:]
    assert overflowed  # some row in it overflowed
    # a shorter run is one smaller block, not a prefix of the same one
    assert finals(params, t, 31, 0, 1001) == full[:1001]


def _segment_blocks(params, t_end, seed, start, stop):
    """Final (eta, n_ell) of trajectories start, ..., stop - 1, run in lockstep blocks."""
    return [(tuple(eta), n_ell)
            for block in simulate._blocks(*simulate._loop(params), t_end, seed, start, stop)
            for eta, n_ell in zip(*(a.tolist() for a in block))]


def test_segment_trajectory_does_not_depend_on_chunking(overflowed):
    block = simulate._BLOCK
    full = _segment_blocks(SEG, 8.0, 31, 0, block + 12)
    assert _segment_blocks(SEG, 8.0, 31, 5, 12) == full[5:12]
    # a chunk that starts mid-block and crosses the full run's first block boundary
    overflowed.clear()
    assert _segment_blocks(SEG, 8.0, 31, block - 5, block + 12) == full[block - 5:]
    assert overflowed  # some row in it overflowed
    # a shorter run is one smaller block, not a prefix of the same one
    cfg = SimConfig(SEG, 8.0, 1001, seed=31)
    assert [(s.eta, s.n_ell) for s in simulate_segment(cfg)] == full[:1001]


def test_segment_estimate_does_not_depend_on_chunk_bounds():
    # two workers split at (block + 13) // 2, the serial run at block
    cfg = SimConfig(SEG, 1.0, simulate._BLOCK + 13, seed=5, observables=((1, 2), (3,)))
    assert estimate(cfg, threads=1) == estimate(cfg, threads=2)


def test_halfline_estimate_does_not_depend_on_chunk_bounds():
    cfg = SimConfig(PARAMS, 1.0, simulate._BLOCK + 13, seed=5, observables=((1, 2), (3,)))
    assert estimate(cfg, threads=1) == estimate(cfg, threads=2)


class _RowDraws:
    """One trajectory's draws, one event at a time: its row, then rows of its overflow stream.

    exponential() starts the next event and returns its clock -log1p(-U);
    uniform() returns the pick of that same event.
    """

    def __init__(self, row, streams, index):
        self._row = row
        self._j = 0
        self._streams = streams
        self._index = index
        self._spill = None
        self.events = 0

    def exponential(self):
        j = self._j
        if j == 2 * simulate._K:
            if self._spill is None:
                self._spill = self._streams.overflow(self._index)
            self._row = simulate._rows(self._spill, 1)[0].tolist()
            j = 0
        self._j = j + 2
        self.events += 1
        return -math.log1p(-self._row[j])

    def uniform(self):
        return self._row[self._j - 1]


def _reference_finals(run, rates, t_end, seed, stop, events):
    """run(*rates, t_end, draws) for trajectories 0, ..., stop - 1, one at a time.

    Appends each trajectory's event count to `events`.
    """
    streams = simulate._Streams(seed, stop)
    finals = []
    for first in range(0, stop, simulate._BLOCK):
        for i, row in enumerate(simulate._rng_for(streams, first).tolist(), first):
            draws = _RowDraws(row, streams, i)
            finals.append(run(*rates, t_end, draws))
            events.append(draws.events)
    return finals


# The per-trajectory event loops that the lockstep runners replaced, kept as
# their reference.  They add rates in list order, as sum() did on Python 3.11
# (from 3.12 on, sum() compensates float rounding).

def _reference_halfline(p, q, alpha, gamma, t_end, draws):
    # site 1's boundary move, then bond (s, s+1) for s = 1, ..., the furthest
    # particle; each move flips the sites it lists
    occ = set()
    t = 0.0
    while True:
        moves = []
        if 1 in occ:
            if gamma > 0:
                moves.append((gamma, {1}))
        elif alpha > 0:
            moves.append((alpha, {1}))
        for s in range(1, max(occ, default=0) + 1):
            if s in occ and s + 1 not in occ:
                moves.append((p, {s, s + 1}))
            elif s not in occ and s + 1 in occ:
                moves.append((q, {s, s + 1}))
        total = 0.0
        for r, _ in moves:
            total += r
        if total <= 0.0:
            return frozenset(occ)
        t += draws.exponential() / total
        if t > t_end:
            return frozenset(occ)
        u = draws.uniform() * total
        acc = 0.0
        for r, flips in moves:
            acc += r
            if u <= acc:
                occ ^= flips
                break


def _reference_segment(ell, p, q, alpha, gamma, beta, delta, t_end, draws):
    eta = [0] * (ell - 1)
    n_ell = 0
    t = 0.0
    while True:
        moves = []
        if eta[0] == 0:
            if alpha > 0:
                moves.append((alpha, 0, 0))
        elif gamma > 0:
            moves.append((gamma, 1, 0))
        if eta[ell - 2] == 0:
            if delta > 0:
                moves.append((delta, 2, ell - 2))
        elif beta > 0:
            moves.append((beta, 3, ell - 2))
        for x in range(ell - 2):
            if eta[x] == 1 and eta[x + 1] == 0:
                moves.append((p, 4, x))
            elif eta[x] == 0 and eta[x + 1] == 1:
                moves.append((q, 5, x))
        total = 0.0
        for r, _, _ in moves:
            total += r
        if total <= 0.0:
            return tuple(eta), n_ell
        t += draws.exponential() / total
        if t > t_end:
            return tuple(eta), n_ell
        u = draws.uniform() * total
        acc = 0.0
        for r, kind, x in moves:
            acc += r
            if u <= acc:
                if kind == 0:
                    eta[0] = 1
                elif kind == 1:
                    eta[0] = 0
                elif kind == 2:
                    eta[ell - 2] = 1
                    n_ell -= 1
                elif kind == 3:
                    eta[ell - 2] = 0
                    n_ell += 1
                else:
                    eta[x], eta[x + 1] = eta[x + 1], eta[x]
                break


def _reference_dual(ell, p, q, rho0, rho_ell, x0, t_end, draws):
    x = list(x0)
    n = len(x)
    t = 0.0
    time_left = 0.0
    time_right = 0.0
    while True:
        moves = []
        for k in range(n):
            lo = x[k - 1] + 1 if k > 0 else 1
            hi = x[k + 1] - 1 if k < n - 1 else ell
            if x[k] > lo:
                moves.append((p, k, -1))
            if x[k] < hi:
                moves.append((q, k, +1))
        total = 0.0
        for r, _, _ in moves:
            total += r
        dt = draws.exponential() / total if total > 0 else float("inf")
        step_end = min(t + dt, t_end)
        if x[0] == 1:
            time_left += step_end - t
        if x[-1] == ell:
            time_right += step_end - t
        t = step_end
        if t >= t_end:
            break
        u = draws.uniform() * total
        acc = 0.0
        for r, k, d in moves:
            acc += r
            if u <= acc:
                x[k] += d
                break
    return tuple(x), math.exp(-(p - q) * rho0 * time_left + (p - q) * rho_ell * time_right)


@pytest.mark.parametrize("t_end", [0.0, 1.0, 3.0, 12.0])
def test_lockstep_halfline_equals_per_trajectory_reference(t_end):
    events, widths = [], []
    count = 1000
    # the second set has gamma = 0, the third boundary rates off the Liggett line
    for seed, params in enumerate([PARAMS, ModelParams.from_density(1, F(3, 5), 1),
                                   ModelParams(2, F(1, 3), F(3, 2), F(1, 5))]):
        rates = simulate._loop(params)[1]
        reference = _reference_finals(_reference_halfline, rates, t_end, seed, count, events)
        cfg = SimConfig(params, t_end, count, seed=seed)
        assert [s.occupied for s in simulate_halfline(cfg)] == reference
        lockstep = []
        for eta, n_ell in simulate._blocks(*simulate._loop(params), t_end, seed, 0, count):
            assert not n_ell.any() and not eta[:, -1].any()  # nothing reaches the last site
            widths.append(eta.shape[1])
            lockstep += [frozenset((np.flatnonzero(row) + 1).tolist()) for row in eta]
        assert lockstep == reference
    if t_end >= 3.0:
        assert max(events) > simulate._K  # some row overflowed
        assert max(widths) > 8  # some window grew
    if t_end == 12.0:
        # past 2 _K events a trajectory moves on to its overflow stream's next row
        assert max(events) > 3 * simulate._K


@pytest.mark.parametrize("t_end, ell", [(t_end, ell) for t_end in (0.0, 1.0, 3.0)
                                         for ell in (2, 4, 6)] + [(12.0, 6)])
def test_lockstep_runs_equal_per_trajectory_reference(ell, t_end):
    segment_events, dual_events = [], []
    count = 1000
    full = tuple(range(1, ell + 1))  # a jammed dual walk: no move, no clock drawn
    starts = [(1,), (ell,), full] + [x0 for x0 in ((1, 3), (2, 4, 5)) if x0[-1] <= ell]
    # the second and third sets have a zero boundary rate on each side (gamma,
    # delta; alpha, beta), the fourth a closed right end (beta = delta = 0)
    for seed, params in enumerate([
            SegmentParams.from_densities(1, F(1, 2), F(3, 4), F(1, 3), ell),
            SegmentParams.from_densities(1, F(3, 5), 1, 0, ell),
            SegmentParams.from_densities(1, F(2, 5), 0, 1, ell),
            SegmentParams(1, F(1, 2), F(3, 4), F(1, 8), ell=ell, beta=0, delta=0)]):
        rates = simulate._loop(params)[1]
        reference = _reference_finals(_reference_segment, rates, t_end, seed, count,
                                      segment_events)
        assert _segment_blocks(params, t_end, seed, 0, count) == reference
        for x0 in starts:
            reference = _reference_finals(_reference_dual, _dual_rates(params, x0), t_end,
                                          seed, count, dual_events)
            assert _dual_finals(params, t_end, seed, 0, count, x0) == reference
            if x0 == full:
                assert all(weight == reference[0][1] for _, weight in reference)
    if (ell, t_end) == (6, 3.0):
        assert max(segment_events + dual_events) > simulate._K  # some row overflowed
    if t_end == 12.0:
        # past 2 _K events a trajectory moves on to its overflow stream's next row
        assert max(segment_events) > 3 * simulate._K and max(dual_events) > 3 * simulate._K


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

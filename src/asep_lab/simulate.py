"""Exact continuous-time simulation of half-line and segment open ASEP.

Rejection-free event scheduling: one exponential clock at the total active
rate, then a categorical pick among the active transitions.  The half-line
state is a sparse set of occupied sites, so the infinite-lattice dynamics
are simulated exactly with no truncation.

Each event takes two draws, its clock and its pick.  Trajectory i reads
its first _K events from its row, draws [2*_K*i, 2*_K*(i+1)) of
PCG64DXSM(SeedSequence(seed)), and any further ones from its own overflow
stream PCG64DXSM(SeedSequence(seed)).jumped(i + 1).  Rows are filled for
a block of trajectories in one numpy call.  A trajectory's draws are thus
a function of (seed, i) only, and estimates are reproducible bit-for-bit
regardless of execution order or worker count.  Each clock is
-math.log1p(-U), one C-library call per event: numpy's vectorized log1p
takes SIMD paths that round the last bit differently from one CPU to
another, and would carry that into the reweighted dual estimate.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .model import (AsepState, ModelParams, SegmentParams, SegmentState, ValidityError,
                    check_chamber, h_product, h_product_segment)


@dataclass(frozen=True)
class SimConfig:
    params: Union[ModelParams, SegmentParams]
    t_end: float
    trajectories: int
    seed: int
    observables: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "observables",
                           tuple(tuple(int(v) for v in obs) for obs in self.observables))
        if self.trajectories < 1:
            raise ValidityError("need at least one trajectory")
        # a NaN or infinite end time would never stop the event loops
        if not 0 <= self.t_end < math.inf:
            raise ValidityError("t_end must be finite and nonnegative")


@dataclass(frozen=True)
class McEstimate:
    observable: Tuple[int, ...]
    mean: float
    std_error: float
    trajectories: int


# events a trajectory reads from its row before it turns to its overflow stream
_K = 16
# trajectories whose rows one numpy call fills; bounds a chunk's row memory
_BLOCK = 512


def _rows(rng: np.random.Generator, count: int) -> List[List[float]]:
    """`count` rows of 2*_K uniform draws: event k's clock draw at 2k, its pick at 2k+1.

    Rows are Python floats so that the event loops do float arithmetic
    rather than numpy-scalar arithmetic.
    """
    return rng.random((count, 2 * _K)).tolist()


class _Streams:
    """One call's (or one worker chunk's) rows of a seed's stream, up to trajectory stop - 1.

    Trajectory i's row is draws [2*_K*i, 2*_K*(i+1)) of
    PCG64DXSM(SeedSequence(seed)); rows are filled _BLOCK trajectories at a
    time, each block one advance from the start state and one numpy fill.
    A trajectory with more than _K events continues on
    PCG64DXSM(SeedSequence(seed)).jumped(i + 1), which only it builds.
    """

    def __init__(self, seed: int, stop: int):
        self.bits = np.random.PCG64DXSM(np.random.SeedSequence(seed))
        self.start = self.bits.state
        self.rng = np.random.Generator(self.bits)
        self.stop = stop
        self.first = self.end = 0
        self.rows: List[List[float]] = []

    def fill(self, first: int):
        self.bits.state = self.start
        self.bits.advance(2 * _K * first)
        self.first, self.end = first, min(first + _BLOCK, self.stop)
        self.rows = _rows(self.rng, self.end - first)

    def overflow(self, index: int) -> np.random.Generator:
        self.bits.state = self.start
        return np.random.Generator(self.bits.jumped(index + 1))


def _rng_for(streams: _Streams, index: int) -> List[float]:
    """Trajectory `index`'s row, filling the block that starts there if it is not held."""
    if not streams.first <= index < streams.end:
        streams.fill(index)
    return streams.rows[index - streams.first]


class _Draws:
    """One trajectory's draws: its row, then rows of its overflow stream.

    exponential() starts the next event and returns its clock -log1p(-U);
    uniform() returns the pick of that same event.
    """

    def __init__(self, row: List[float], streams: _Streams, index: int):
        self._row = row
        self._j = 0
        self._streams = streams
        self._index = index
        self._spill: Optional[np.random.Generator] = None

    def exponential(self) -> float:
        j = self._j
        if j == 2 * _K:
            if self._spill is None:
                self._spill = self._streams.overflow(self._index)
            self._row = _rows(self._spill, 1)[0]
            j = 0
        self._j = j + 2
        return -math.log1p(-self._row[j])

    def uniform(self) -> float:
        return self._row[self._j - 1]


def _run_halfline(p: float, q: float, alpha: float, gamma: float,
                  t_end: float, draws: _Draws) -> frozenset:
    occ: set = set()
    t = 0.0
    moves: List[Tuple[float, int, int]] = []
    while True:
        moves.clear()
        if 1 in occ:
            if gamma > 0:
                moves.append((gamma, 0, 1))
        elif alpha > 0:
            moves.append((alpha, 1, 1))
        for s in occ:
            if s + 1 not in occ:
                moves.append((p, 2, s))
            if s >= 2 and s - 1 not in occ:
                moves.append((q, 3, s))
        total = 0.0
        for r, _, _ in moves:
            total += r
        if total <= 0.0:
            return frozenset(occ)
        t += draws.exponential() / total
        if t > t_end:
            return frozenset(occ)
        u = draws.uniform() * total
        acc = 0.0
        for r, kind, s in moves:
            acc += r
            if u <= acc:
                if kind == 0:
                    occ.discard(1)
                elif kind == 1:
                    occ.add(1)
                elif kind == 2:
                    occ.discard(s)
                    occ.add(s + 1)
                else:
                    occ.discard(s)
                    occ.add(s - 1)
                break


def _run_segment(ell: int, p: float, q: float, alpha: float, gamma: float,
                 beta: float, delta: float, t_end: float, draws: _Draws) -> Tuple[tuple, int]:
    eta = [0] * (ell - 1)
    n_ell = 0
    t = 0.0
    while True:
        moves: List[Tuple[float, int, int]] = []
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
        total = sum(r for r, _, _ in moves)
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


def _run_dual(ell: int, p: float, q: float, rho0: float, rho_ell: float, x0: tuple,
              t_end: float, draws: _Draws) -> Tuple[List[int], float]:
    """Closed n-particle exclusion walk on [1, ell]: final sites and Feynman-Kac weight."""
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
        total = sum(r for r, _, _ in moves)
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
    return x, math.exp(-(p - q) * rho0 * time_left + (p - q) * rho_ell * time_right)


def _finals(run, rates: tuple, t_end: float, seed: int, start: int, stop: int) -> Iterator:
    """run(*rates, t_end, draws) for trajectories start, ..., stop - 1 of `seed`.

    The one place that sets up a seed's streams and a trajectory's draws.
    """
    streams = _Streams(seed, stop)
    for i in range(start, stop):
        yield run(*rates, t_end, _Draws(_rng_for(streams, i), streams, i))


def _loop(params: ModelParams, segment: bool) -> Tuple[object, tuple]:
    """The half-line or segment event loop and its arguments before t_end."""
    names = ("p_rate", "q_rate", "alpha", "gamma") + (("beta", "delta") if segment else ())
    rates = tuple(float(getattr(params, name)) for name in names)
    return (_run_segment, (params.ell,) + rates) if segment else (_run_halfline, rates)


def _chunk(args) -> np.ndarray:
    """H-observable values of trajectories start, ..., stop - 1, one row each."""
    params, t_end, seed, start, stop, observables = args
    segment = isinstance(params, SegmentParams)
    qratio = float(params.q)
    finals = _finals(*_loop(params, segment), t_end, seed, start, stop)
    # two loops rather than h(*final, ...): the star call costs about 3 % of an estimate;
    # one flat list of floats, which the garbage collector does not track, unlike row lists
    if segment:
        values = [h_product_segment(eta, n_ell, obs, qratio)
                  for eta, n_ell in finals for obs in observables]
    else:
        values = [h_product(occ, obs, qratio) for occ in finals for obs in observables]
    return np.array(values, dtype=float).reshape(stop - start, len(observables))


def _sampled(config: SimConfig, segment: bool, max_states: Optional[int]) -> Iterator:
    count = config.trajectories if max_states is None else min(max_states, config.trajectories)
    return _finals(*_loop(config.params, segment), config.t_end, config.seed, 0, count)


def simulate_halfline(config: SimConfig, max_states: Optional[int] = None) -> List[AsepState]:
    """Final configurations, one exact CTMC sample per trajectory."""
    if isinstance(config.params, SegmentParams):
        raise TypeError("half-line simulation needs ModelParams, not SegmentParams")
    return [AsepState(occ) for occ in _sampled(config, False, max_states)]


def simulate_segment(config: SimConfig, max_states: Optional[int] = None) -> List[SegmentState]:
    """Final (occupations, through-count) samples for the segment process."""
    if not isinstance(config.params, SegmentParams):
        raise TypeError("segment simulation needs SegmentParams")
    return [SegmentState(eta, n_ell) for eta, n_ell in _sampled(config, True, max_states)]


def _mean_se(values: np.ndarray) -> Tuple[float, float]:
    """Sample mean and its standard error (0 for a single sample)."""
    se = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return float(np.mean(values)), se


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def estimate(config: SimConfig, threads: int = 1) -> List[McEstimate]:
    """Monte Carlo means and standard errors of the H-observables.

    Identical output for any thread count: trajectory i always reads its
    row of PCG64DXSM(SeedSequence(seed)), then its overflow stream
    jumped(i + 1) (see the module docstring).  At most one worker process
    runs per usable CPU, whatever `threads` asks for.
    """
    n = config.trajectories
    workers = min(threads, n, _usable_cpus())
    if workers <= 1:
        values = _chunk((config.params, config.t_end, config.seed, 0, n, config.observables))
    else:
        bounds = [k * n // workers for k in range(workers + 1)]
        jobs = [(config.params, config.t_end, config.seed, a, b, config.observables)
                for a, b in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_chunk, jobs))
        values = np.vstack(parts)
    return [McEstimate(obs, *_mean_se(values[:, j]), n)
            for j, obs in enumerate(config.observables)]


def dual_reweighted_estimate(params: SegmentParams, x0: Sequence[int], t_end: float,
                             trajectories: int, seed: int,
                             initial: Optional[SegmentState] = None) -> McEstimate:
    """Feynman-Kac cross-check for the dual process.

    Simulates the closed-boundary n-particle exclusion walk (left rate p,
    right rate q) and weights each path by
    exp(-(p-q) rho0 * time at site 1 + (p-q) rho_ell * time at site ell);
    the weighted mean of H(initial; x(t)) estimates the same expectation as
    the dual-generator ODE solution at x0.
    """
    if not params.liggett2_ok():
        raise ValidityError("reweighting uses the boundary densities; Liggett required")
    SimConfig(params, t_end, trajectories, seed)  # the trajectory count and t_end checks
    x0 = check_chamber(x0, 1, params.ell)
    rates = (params.ell, float(params.p_rate), float(params.q_rate), float(params.rho0),
             float(params.rho_ell), x0)
    qratio = float(params.q)
    if initial is None:
        initial = SegmentState.empty(params.ell)
    elif initial.ell != params.ell:
        raise ValidityError(f"initial state is on a segment with ell = {initial.ell}, "
                            f"params have ell = {params.ell}")
    values = np.empty(trajectories)
    for i, (x, weight) in enumerate(_finals(_run_dual, rates, t_end, seed, 0, trajectories)):
        values[i] = weight * float(h_product_segment(initial.eta, initial.n_ell, x, qratio))
    return McEstimate(x0, *_mean_se(values), trajectories)

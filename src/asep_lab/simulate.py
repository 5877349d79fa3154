"""Exact continuous-time simulation of half-line and segment open ASEP.

Rejection-free event scheduling (Gillespie's direct method): one
exponential clock at the total active rate, then a categorical pick among
the active transitions.  The half-line state is a sparse set of occupied
sites, so the infinite-lattice dynamics are simulated exactly with no
truncation.

Each event takes two draws, its clock and its pick.  Trajectory i reads
its first _K events from its row, draws [2*_K*i, 2*_K*(i+1)) of
PCG64DXSM(SeedSequence(seed)), and any further ones from its own overflow
stream PCG64DXSM(SeedSequence(seed)).jumped(i + 1).  Rows are filled for
a block of up to _BLOCK trajectories in one numpy call.  A trajectory's
draws are thus a function of (seed, i) only, and estimates are
reproducible bit-for-bit regardless of execution order or worker count.

Segment and dual trajectories run in lockstep: the running trajectories
of one block take their k-th event together, on numpy arrays.  A step
lays out every move in one fixed order and gives a move the
one-trajectory-at-a-time scheme would not list the rate 0.0; adding 0.0 is
exact, so the running sums along the layout, and the total, are that
scheme's bit for bit, and the pick is the first listed move whose running
sum reaches it.  The half-line runs one trajectory at a time: it lists its
moves in the iteration order of the set of occupied sites, which is not
the sorted order once a site reaches 8, so a fixed layout would sample
other paths.

Each clock is -math.log1p(-U) and each dual weight a math.exp, one
C-library call per value: numpy's vectorized log1p and exp take SIMD paths
that round the last bit differently from one CPU to another, and would
carry that into the estimates.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .model import (AsepState, ModelParams, SegmentParams, SegmentState, ValidityError,
                    check_chamber, h_exponent, h_exponent_segment)


@dataclass(frozen=True)
class SimConfig:
    params: Union[ModelParams, SegmentParams]
    t_end: float
    trajectories: int
    seed: int
    observables: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self):
        # chamber vectors from site 1, up to ell on the segment; () is H = 1
        high = self.params.ell if isinstance(self.params, SegmentParams) else None
        object.__setattr__(self, "observables",
                           tuple(check_chamber(obs, 1, high) if len(obs) else ()
                                 for obs in self.observables))
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
# trajectories whose rows one numpy call fills (1 MiB) and one lockstep run moves
_BLOCK = 4096


def _rows(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` rows of 2*_K uniform draws: event k's clock draw at 2k, its pick at 2k+1."""
    return rng.random((count, 2 * _K))


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
        self.rows = np.empty((0, 2 * _K))

    def fill(self, first: int) -> np.ndarray:
        """Hold and return the rows of trajectories first, ..., min(first + _BLOCK, stop) - 1."""
        self.bits.state = self.start
        self.bits.advance(2 * _K * first)
        self.first, self.end = first, min(first + _BLOCK, self.stop)
        self.rows = _rows(self.rng, self.end - first)
        return self.rows

    def overflow(self, index: int) -> np.random.Generator:
        self.bits.state = self.start
        return np.random.Generator(self.bits.jumped(index + 1))


def _rng_for(streams: _Streams, index: int) -> List[float]:
    """Trajectory `index`'s row as Python floats, filling the block that starts there if not held.

    Python floats, so that the half-line event loop does float arithmetic
    rather than numpy-scalar arithmetic.
    """
    if not streams.first <= index < streams.end:
        streams.fill(index)
    return streams.rows[index - streams.first].tolist()


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
            self._row = _rows(self._spill, 1)[0].tolist()
            j = 0
        self._j = j + 2
        return -math.log1p(-self._row[j])

    def uniform(self) -> float:
        return self._row[self._j - 1]


class _Lockstep:
    """The draws of one block's running trajectories, which take their k-th event together.

    Each reads event k's clock and pick at columns 2k and 2k + 1 of its
    row; from event _K on, rows of its overflow stream, one per _K events.
    keep() drops the trajectories that finished, in the order the runner
    keeps its own arrays.
    """

    def __init__(self, streams: _Streams, first: int):
        self._streams = streams
        self._first = first
        self._rows = streams.fill(first)
        self._at = np.arange(len(self._rows))  # each running trajectory's row
        self._spills: List[np.random.Generator] = []  # their overflow streams, from event _K on
        self.size = len(self._rows)
        self.k = 0

    def keep(self, running: np.ndarray):
        self._at = self._at[running]

    def clocks(self) -> np.ndarray:
        """Event k's clocks -log1p(-U), one C-library call each."""
        j = self.k % _K
        if j == 0 and self.k:
            at = self._at.tolist()
            if self.k == _K:
                self._spills = [self._streams.overflow(self._first + a) for a in at]
            else:
                self._spills = [self._spills[a] for a in at]
            self._rows = np.vstack([_rows(spill, 1) for spill in self._spills])
            self._at = np.arange(len(at))
        return np.array([-math.log1p(-u) for u in self._rows[self._at, 2 * j].tolist()])

    def picks(self) -> np.ndarray:
        """Event k's pick draws; the next clocks() starts event k + 1."""
        u = self._rows[self._at, 2 * (self.k % _K) + 1]
        self.k += 1
        return u


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


def _pick(listed: np.ndarray, acc: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the first listed move whose running rate sum reaches the pick u."""
    return np.argmax(listed & (u[:, None] <= acc), axis=1)


def _clock_steps(draws: _Lockstep, total: np.ndarray) -> np.ndarray:
    """Event k's time steps; inf, and no clock used, where no move has a rate."""
    return np.divide(draws.clocks(), total, out=np.full(len(total), math.inf), where=total > 0.0)


def _run_segment(ell: int, p: float, q: float, alpha: float, gamma: float, beta: float,
                 delta: float, t_end: float, draws: _Lockstep) -> Tuple[np.ndarray, np.ndarray]:
    """Final occupations (trajectories x ell-1) and through-counts of one block, in lockstep.

    Moves: site 1's boundary move, site ell-1's, then bond (x, x+1) for
    x = 1, ..., ell-2.  A boundary move is listed when its rate is
    positive; a bond move whenever exactly one of its sites is occupied.
    """
    eta_out = np.zeros((draws.size, ell - 1), dtype=np.int8)
    n_out = np.zeros(draws.size, dtype=np.int64)
    eta, n_ell, t = eta_out.copy(), n_out.copy(), np.zeros(draws.size)
    live = np.arange(draws.size)
    flips = np.zeros((ell, ell - 1), dtype=np.int8)  # the sites each move flips
    flips[0, 0] = flips[1, -1] = 1
    for x in range(ell - 2):
        flips[2 + x, x] = flips[2 + x, x + 1] = 1
    while live.size:
        rates = np.empty((live.size, ell))
        rates[:, 0] = np.where(eta[:, 0] == 0, alpha, gamma)
        rates[:, 1] = np.where(eta[:, -1] == 0, delta, beta)
        hop = eta[:, :-1] - eta[:, 1:]  # 1: the particle at x can hop right, -1: left
        rates[:, 2:] = np.where(hop > 0, p, np.where(hop < 0, q, 0.0))
        listed = rates > 0.0
        listed[:, 2:] = hop != 0
        acc = np.cumsum(rates, axis=1)
        total = acc[:, -1]
        t += _clock_steps(draws, total)
        done = t > t_end
        if done.any():
            eta_out[live[done]] = eta[done]
            n_out[live[done]] = n_ell[done]
            running = ~done
            live, eta, n_ell, t = live[running], eta[running], n_ell[running], t[running]
            listed, acc, total = listed[running], acc[running], total[running]
            draws.keep(running)
        move = _pick(listed, acc, draws.picks() * total)
        # site ell-1's move: beta empties it (n_ell + 1), delta fills it (n_ell - 1)
        n_ell += np.where(move == 1, 2 * eta[:, -1] - 1, 0)
        eta ^= flips[move]
    return eta_out, n_out


def _run_dual(ell: int, p: float, q: float, rho0: float, rho_ell: float, x0: tuple,
              t_end: float, draws: _Lockstep) -> Tuple[np.ndarray, np.ndarray]:
    """Closed n-particle exclusion walks on [1, ell] of one block, in lockstep.

    Returns the final sites (trajectories x n) and Feynman-Kac weights.
    Moves: per particle, left (rate p) then right (rate q), each listed
    when the neighbouring particle or the wall leaves room.
    """
    n = len(x0)
    x_out = np.tile(np.array(x0, dtype=np.int64), (draws.size, 1))
    left_out, right_out = np.zeros(draws.size), np.zeros(draws.size)
    x, t = x_out.copy(), np.zeros(draws.size)
    time_left, time_right = np.zeros(draws.size), np.zeros(draws.size)
    live = np.arange(draws.size)
    shifts = np.zeros((2 * n, n), dtype=np.int64)  # each move's displacement
    shifts[0::2] = -np.eye(n, dtype=np.int64)
    shifts[1::2] = np.eye(n, dtype=np.int64)
    rate_row = np.tile([p, q], n)
    while live.size:
        listed = np.empty((live.size, 2 * n), dtype=bool)
        listed[:, 0] = x[:, 0] > 1
        listed[:, 2::2] = x[:, 1:] > x[:, :-1] + 1
        listed[:, 1:-1:2] = listed[:, 2::2]
        listed[:, -1] = x[:, -1] < ell
        acc = np.cumsum(np.where(listed, rate_row, 0.0), axis=1)
        total = acc[:, -1]
        step_end = np.minimum(t + _clock_steps(draws, total), t_end)
        gap = step_end - t
        time_left = np.where(x[:, 0] == 1, time_left + gap, time_left)
        time_right = np.where(x[:, -1] == ell, time_right + gap, time_right)
        t = step_end
        done = t >= t_end
        if done.any():
            x_out[live[done]] = x[done]
            left_out[live[done]] = time_left[done]
            right_out[live[done]] = time_right[done]
            running = ~done
            live, x, t = live[running], x[running], t[running]
            time_left, time_right = time_left[running], time_right[running]
            listed, acc, total = listed[running], acc[running], total[running]
            draws.keep(running)
        x += shifts[_pick(listed, acc, draws.picks() * total)]
    exponents = -(p - q) * rho0 * left_out + (p - q) * rho_ell * right_out
    return x_out, np.array([math.exp(v) for v in exponents.tolist()])


def _finals(run, rates: tuple, t_end: float, seed: int, start: int, stop: int) -> Iterator:
    """run(*rates, t_end, draws) for trajectories start, ..., stop - 1 of `seed`, one at a time."""
    streams = _Streams(seed, stop)
    for i in range(start, stop):
        yield run(*rates, t_end, _Draws(_rng_for(streams, i), streams, i))


def _blocks(run, rates: tuple, t_end: float, seed: int, start: int, stop: int) -> Iterator:
    """run(*rates, t_end, draws) for each block of trajectories start, ..., stop - 1 of `seed`."""
    streams = _Streams(seed, stop)
    for first in range(start, stop, _BLOCK):
        yield run(*rates, t_end, _Lockstep(streams, first))


def _loop(params: ModelParams, segment: bool) -> Tuple[object, tuple]:
    """The half-line or segment event loop and its arguments before t_end."""
    names = ("p_rate", "q_rate", "alpha", "gamma") + (("beta", "delta") if segment else ())
    rates = tuple(float(getattr(params, name)) for name in names)
    return (_run_segment, (params.ell,) + rates) if segment else (_run_halfline, rates)


def _powers(qratio: float, exponents: np.ndarray) -> np.ndarray:
    """qratio ** e for each integer e, one float power per distinct exponent."""
    distinct, inverse = np.unique(exponents, return_inverse=True)
    table = np.array([qratio ** e for e in distinct.tolist()])
    return table[inverse].reshape(exponents.shape)


def _segment_exponents(eta: np.ndarray, n_ell: np.ndarray, observables) -> np.ndarray:
    """h_exponent_segment of each final state (rows) at each observable (columns)."""
    sites = eta.shape[1]
    tail = np.zeros((len(eta), sites + 1), dtype=np.int64)  # tail[:, s] = eta[:, s:].sum(1)
    tail[:, :sites] = np.cumsum(eta[:, ::-1], axis=1)[:, ::-1]
    counts = np.zeros((sites + 1, len(observables)), dtype=np.int64)
    for j, obs in enumerate(observables):
        for x in obs:
            counts[min(max(x - 1, 0), sites), j] += 1
    return tail @ counts + np.outer(n_ell, counts.sum(axis=0))


def _chunk(args) -> np.ndarray:
    """H-observable values of trajectories start, ..., stop - 1, one row each."""
    params, t_end, seed, start, stop, observables = args
    segment = isinstance(params, SegmentParams)
    run, rates = _loop(params, segment)
    if segment:
        exponents = np.vstack([_segment_exponents(eta, n_ell, observables) for eta, n_ell
                               in _blocks(run, rates, t_end, seed, start, stop)])
    else:
        # one flat list of ints, which the garbage collector does not track
        exponents = np.array([h_exponent(occ, obs)
                              for occ in _finals(run, rates, t_end, seed, start, stop)
                              for obs in observables], dtype=np.int64)
        exponents = exponents.reshape(stop - start, len(observables))
    return _powers(float(params.q), exponents)


def _sampled(config: SimConfig, segment: bool) -> Iterator:
    run, rates = _loop(config.params, segment)
    return (_blocks if segment else _finals)(run, rates, config.t_end, config.seed, 0,
                                             config.trajectories)


def simulate_halfline(config: SimConfig) -> List[AsepState]:
    """Final configurations, one exact CTMC sample per trajectory."""
    if isinstance(config.params, SegmentParams):
        raise TypeError("half-line simulation needs ModelParams, not SegmentParams")
    return [AsepState(occ) for occ in _sampled(config, False)]


def simulate_segment(config: SimConfig) -> List[SegmentState]:
    """Final (occupations, through-count) samples for the segment process."""
    if not isinstance(config.params, SegmentParams):
        raise TypeError("segment simulation needs SegmentParams")
    return [SegmentState(eta, n_ell) for block in _sampled(config, True)
            for eta, n_ell in zip(*(a.tolist() for a in block))]


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
    if initial is None:
        initial = SegmentState.empty(params.ell)
    elif initial.ell != params.ell:
        raise ValidityError(f"initial state is on a segment with ell = {initial.ell}, "
                            f"params have ell = {params.ell}")
    # N_s of the initial state at each site s = 0, ..., ell (s = 0 is not a dual site)
    counts = np.array([h_exponent_segment(initial.eta, initial.n_ell, (s,))
                       for s in range(params.ell + 1)])
    values = [weights * _powers(float(params.q), counts[x].sum(axis=1))
              for x, weights in _blocks(_run_dual, rates, t_end, seed, 0, trajectories)]
    return McEstimate(x0, *_mean_se(np.concatenate(values)), trajectories)

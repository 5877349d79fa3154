"""Exact continuous-time simulation of open ASEP (half line, segment) and the segment's dual.

Rejection-free event scheduling (Gillespie's direct method): one
exponential clock at the total active rate, then a categorical pick among
the active transitions.  The half line is simulated exactly with no
truncation (see the window below).

Each event takes two draws, its clock and its pick.  Trajectory i reads
its first _K events from its row, draws [2*_K*i, 2*_K*(i+1)) of
PCG64DXSM(SeedSequence(seed)), and any further ones from its own overflow
stream PCG64DXSM(SeedSequence(seed)).jumped(i + 1).  Rows are filled for
a block of up to _BLOCK trajectories in one numpy call.  A trajectory's
draws are thus a function of (seed, i) only, and estimates are
reproducible bit-for-bit regardless of execution order or worker count.

Trajectories run in lockstep: the running trajectories of one block take
their k-th event together, on numpy arrays.  A step lays out every move
in one fixed order and gives a move the one-trajectory-at-a-time scheme
would not list the rate 0.0; adding 0.0 is exact, so the running sums
along the layout, and the total, are that scheme's bit for bit, and the
pick is the first listed move whose running sum reaches it.  The half
line, the segment and the Feynman-Kac dual share one runner and one
layout: site 1's boundary move, the right end's, then the bonds from left
to right.  The half line has no right end, so that move has rate 0.0, and
its window starts at 8 sites and doubles whenever a running trajectory
has a particle on its last site; the bonds past the furthest particle add
0.0, so a path does not depend on the window, the block or the worker
split.  The dual is the segment walk on sites 1, ..., ell with no
boundary move and p and q swapped, started from its particles' sites; in
site order its moves are each particle's left step, then its right step.
It also clocks the time its first and its last site are occupied, which
make its weights.  Every walk stops at its first clock past t_end.

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
                    check_chamber, h_exponent_segment)


# the largest run, as max(trajectories, 256) x SimConfig.events_bound(); a
# lockstep step costs about the same up to 256 running trajectories.  Timed on
# 2 cores, one BLAS thread: 20-25 s at 4,096 trajectories (segment and dual,
# ell = 100), 48 s (segment) and 62 s (half line, t = 755) at 256.  An event
# costs more on a wider walk: the dual at ell = 1,000, n = 500 took 60 s at a
# tenth of the cap
MAX_SIMULATION_WORK = 10 ** 8


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
        if self.seed < 0:
            raise ValidityError(f"seed must be >= 0, got {self.seed}")
        # a NaN or infinite end time would never stop the event loops
        if not 0 <= self.t_end < math.inf:
            raise ValidityError("t_end must be finite and nonnegative")
        work = max(self.trajectories, 256) * self.events_bound()
        if work > MAX_SIMULATION_WORK:
            raise ValidityError(f"t_end = {self.t_end} with {self.trajectories} trajectories "
                                f"has a work bound of {work:.3g} events, above the cap of "
                                f"{MAX_SIMULATION_WORK:.0e}")

    def events_bound(self) -> float:
        """An upper bound on one trajectory's expected number of events up to t_end.

        On the half line: max(alpha, gamma) t for site 1's boundary moves, plus
        (p + q) alpha t^2 / 2 for the particles' moves, each particle moving at
        rate at most p + q after it is injected at rate alpha.  On the segment:
        t times max(alpha, gamma) + max(beta, delta) + (ell - 1) max(p, q), the
        largest total rate of the segment walk and of its dual alike.
        """
        r, t = self.params, self.t_end
        p, q, alpha, gamma = (float(v) for v in (r.p_rate, r.q_rate, r.alpha, r.gamma))
        if not isinstance(r, SegmentParams):
            return max(alpha, gamma) * t + (p + q) * alpha * t * t / 2
        rate = max(alpha, gamma) + max(float(r.beta), float(r.delta)) + (r.ell - 1) * max(p, q)
        return rate * t


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
    """One call's (or one worker chunk's) view of a seed's stream, up to trajectory stop - 1.

    Trajectory i's row is draws [2*_K*i, 2*_K*(i+1)) of
    PCG64DXSM(SeedSequence(seed)).  A trajectory with more than _K events
    continues on PCG64DXSM(SeedSequence(seed)).jumped(i + 1), which only it
    builds.
    """

    def __init__(self, seed: int, stop: int):
        self.bits = np.random.PCG64DXSM(np.random.SeedSequence(seed))
        self.start = self.bits.state
        self.rng = np.random.Generator(self.bits)
        self.stop = stop

    def overflow(self, index: int) -> np.random.Generator:
        self.bits.state = self.start
        return np.random.Generator(self.bits.jumped(index + 1))


def _rng_for(streams: _Streams, first: int) -> np.ndarray:
    """The rows of trajectories first, ..., min(first + _BLOCK, stop) - 1.

    One advance from the start state and one numpy fill.
    """
    streams.bits.state = streams.start
    streams.bits.advance(2 * _K * first)
    return _rows(streams.rng, min(first + _BLOCK, streams.stop) - first)


class _Draws:
    """The draws of one block's running trajectories, which take their k-th event together.

    Each reads event k's clock and pick at columns 2k and 2k + 1 of its
    row; from event _K on, rows of its overflow stream, one per _K events.
    keep() keeps the running trajectories at the given positions, in the
    order the runner keeps its own arrays.
    """

    def __init__(self, streams: _Streams, first: int, rows: np.ndarray):
        self._streams = streams
        self._first = first
        self._rows = rows
        self._at = np.arange(len(rows))  # each running trajectory's row
        self._spills: List[np.random.Generator] = []  # their overflow streams, from event _K on
        self.size = len(rows)
        self.k = 0

    def keep(self, kept: np.ndarray):
        self._at = self._at[kept]

    def exponential(self) -> np.ndarray:
        """Event k's clocks -log1p(-U), one C-library call each (negating is exact)."""
        j = self.k % _K
        if j == 0 and self.k:
            at = self._at.tolist()
            if self.k == _K:
                self._spills = [self._streams.overflow(self._first + a) for a in at]
            else:
                self._spills = [self._spills[a] for a in at]
            self._rows = np.vstack([_rows(spill, 1) for spill in self._spills])
            self._at = np.arange(len(at))
        minus_u = (-self._rows[self._at, 2 * j]).tolist()
        return -np.fromiter(map(math.log1p, minus_u), float, len(minus_u))

    def uniform(self) -> np.ndarray:
        """Event k's pick draws; the next exponential() starts event k + 1."""
        u = self._rows[self._at, 2 * (self.k % _K) + 1]
        self.k += 1
        return u


# The runners hold one row per move (or site) and one column per running
# trajectory, so that each step's arithmetic runs along contiguous rows.

def _running_sums(rates: np.ndarray) -> np.ndarray:
    """Each column's running sums, added down the rows in order, as one trajectory adds them."""
    acc = np.empty_like(rates)
    acc[0] = rates[0]
    for k in range(1, len(rates)):
        np.add(acc[k - 1], rates[k], out=acc[k])
    return acc


def _pick(listed: np.ndarray, acc: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per column, the first listed move whose running rate sum reaches the pick u."""
    return np.argmax(listed & (u <= acc), axis=0)


def _clock_steps(draws: _Draws, total: np.ndarray) -> np.ndarray:
    """Event k's time steps; inf, and no clock used, where no move has a rate."""
    return np.divide(draws.exponential(), total, out=np.full(len(total), math.inf),
                     where=total > 0.0)


def _flips(width: int) -> np.ndarray:
    """The sites (rows) each move (column) of a `width`-site layout flips (see _run_open)."""
    flips = np.zeros((width, width + 1), dtype=np.int8)
    flips[0, 0] = flips[-1, 1] = 1
    for x in range(width - 1):
        flips[x, 2 + x] = flips[x + 1, 2 + x] = 1
    return flips


def _run_open(width: int, grow: bool, p: float, q: float, alpha: float, gamma: float,
              beta: float, delta: float, t_end: float, draws: _Draws,
              start: Optional[np.ndarray] = None
              ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Final occupations (trajectories x sites) and through-counts of one block, in lockstep.

    Moves: site 1's boundary move, site `width`'s, then bond (x, x+1) for
    x = 1, ..., width-1.  A boundary move is listed when its rate is
    positive; a bond move whenever exactly one of its sites is occupied.
    An end whose two boundary rates are 0 gets rate 0.0 without a look at
    its site.  With `grow`, the window doubles whenever a running
    trajectory has a particle on its last site, so no particle reaches past
    it.  The walks start empty, or from the occupations `start`; given
    `start`, the third result is each trajectory's time up to t_end with
    site 1 and with site `width` occupied (2 x trajectories), else None.
    """
    eta_out = (np.zeros((width, draws.size), dtype=np.int8) if start is None
               else np.repeat(start[:, None], draws.size, axis=1))
    ends_out = None if start is None else np.zeros((2, draws.size))
    n_out = np.zeros(draws.size, dtype=np.int64)
    eta, n_ell, t = eta_out.copy(), n_out.copy(), np.zeros(draws.size)
    ends = None if start is None else ends_out.copy()
    live = np.arange(draws.size)
    flips = _flips(width)
    left, right = alpha > 0.0 or gamma > 0.0, beta > 0.0 or delta > 0.0
    while live.size:
        if grow and eta[-1].any():
            eta = np.pad(eta, ((0, width), (0, 0)))
            eta_out = np.pad(eta_out, ((0, width), (0, 0)))
            width *= 2
            flips = _flips(width)
        rates = np.empty((width + 1, live.size))
        rates[0] = np.where(eta[0] == 0, alpha, gamma) if left else 0.0
        rates[1] = np.where(eta[-1] == 0, delta, beta) if right else 0.0
        hop = eta[:-1] - eta[1:]  # 1: the particle at x can hop right, -1: left
        np.multiply(hop > 0, p, out=rates[2:])
        rates[2:] += (hop < 0) * q
        listed = rates > 0.0  # p and q are positive: a bond is listed where hop != 0
        acc = _running_sums(rates)
        total = acc[-1]
        dt = _clock_steps(draws, total)
        if ends is not None:
            # adding the gap times 0 or 1 is exact
            ends += eta[[0, -1]] * (np.minimum(t + dt, t_end) - t)
        t += dt
        # picked before the finished trajectories leave, so only `move` is filtered
        move = _pick(listed, acc, draws.uniform() * total)
        done = t > t_end
        if done.any():
            # take() selects columns several times faster than a boolean mask does
            gone, kept = np.flatnonzero(done), np.flatnonzero(~done)
            eta_out[:, live[gone]] = eta.take(gone, axis=1)
            n_out[live[gone]] = n_ell[gone]
            if ends is not None:
                ends_out[:, live[gone]] = ends.take(gone, axis=1)
                ends = ends.take(kept, axis=1)
            live, n_ell, t, move = live[kept], n_ell[kept], t[kept], move[kept]
            eta = eta.take(kept, axis=1)
            draws.keep(kept)
        if right:
            # site `width`'s move: beta empties it (n_ell + 1), delta fills it (n_ell - 1)
            n_ell += np.where(move == 1, 2 * eta[-1] - 1, 0)
        eta ^= flips[:, move]
    return eta_out.T, n_out, ends_out


def _run_halfline(p: float, q: float, alpha: float, gamma: float, t_end: float,
                  draws: _Draws) -> Tuple[np.ndarray, np.ndarray]:
    """Final occupations of sites 1, 2, ... and zero through-counts of one block, in lockstep.

    The segment's layout with no right boundary move, on a window that
    starts at 8 sites and doubles as particles advance.  Each bond past the
    furthest particle adds rate 0.0 and is not listed, so each path does
    not depend on the window width.
    """
    return _run_open(8, True, p, q, alpha, gamma, 0.0, 0.0, t_end, draws)[:2]


def _run_segment(ell: int, p: float, q: float, alpha: float, gamma: float, beta: float,
                 delta: float, t_end: float, draws: _Draws) -> Tuple[np.ndarray, np.ndarray]:
    """Final occupations (trajectories x ell-1) and through-counts of one block, in lockstep."""
    return _run_open(ell - 1, False, p, q, alpha, gamma, beta, delta, t_end, draws)[:2]


def _run_dual(ell: int, p: float, q: float, rho0: float, rho_ell: float, x0: tuple,
              t_end: float, draws: _Draws) -> Tuple[np.ndarray, np.ndarray]:
    """Closed n-particle exclusion walks on [1, ell] from x0 of one block, in lockstep.

    Returns the final occupations (trajectories x ell) and Feynman-Kac
    weights.  The walk is _run_open's with no boundary move and p and q
    swapped: a particle steps left at rate p and right at rate q.
    """
    start = np.zeros(ell, dtype=np.int8)
    start[np.array(x0) - 1] = 1
    eta, _, (left, right) = _run_open(ell, False, q, p, 0.0, 0.0, 0.0, 0.0, t_end, draws,
                                      start)
    exponents = -(p - q) * rho0 * left + (p - q) * rho_ell * right
    return eta, np.array([math.exp(v) for v in exponents.tolist()])


def _blocks(run, rates: tuple, t_end: float, seed: int, start: int, stop: int) -> Iterator:
    """run(*rates, t_end, draws) for each block of trajectories start, ..., stop - 1 of `seed`."""
    streams = _Streams(seed, stop)
    for first in range(start, stop, _BLOCK):
        yield run(*rates, t_end, _Draws(streams, first, _rng_for(streams, first)))


def _loop(params: Union[ModelParams, SegmentParams]) -> Tuple[object, tuple]:
    """The half-line or segment lockstep runner and its arguments before t_end."""
    segment = isinstance(params, SegmentParams)
    names = ("p_rate", "q_rate", "alpha", "gamma") + (("beta", "delta") if segment else ())
    rates = tuple(float(getattr(params, name)) for name in names)
    return (_run_segment, (params.ell,) + rates) if segment else (_run_halfline, rates)


def _powers(qratio: float, exponents: np.ndarray) -> np.ndarray:
    """qratio ** e for each integer e, one float power per distinct exponent."""
    distinct, inverse = np.unique(exponents, return_inverse=True)
    table = np.array([qratio ** e for e in distinct.tolist()])
    return table[inverse].reshape(exponents.shape)


def _segment_exponents(eta: np.ndarray, n_ell: np.ndarray, observables) -> np.ndarray:
    """h_exponent_segment of each final state (rows) at each observable (columns).

    On the half line n_ell is 0 and an observable site past the window
    counts no particle, which is h_exponent.
    """
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
    exponents = np.vstack([_segment_exponents(eta, n_ell, observables) for eta, n_ell
                           in _blocks(*_loop(params), t_end, seed, start, stop)])
    return _powers(float(params.q), exponents)


def _sampled(config: SimConfig) -> Iterator:
    return _blocks(*_loop(config.params), config.t_end, config.seed, 0, config.trajectories)


def simulate_halfline(config: SimConfig) -> List[AsepState]:
    """Final configurations, one exact CTMC sample per trajectory."""
    if isinstance(config.params, SegmentParams):
        raise TypeError("half-line simulation needs ModelParams, not SegmentParams")
    return [AsepState((np.flatnonzero(row) + 1).tolist())
            for eta, _ in _sampled(config) for row in eta]


def simulate_segment(config: SimConfig) -> List[SegmentState]:
    """Final (occupations, through-count) samples for the segment process."""
    if not isinstance(config.params, SegmentParams):
        raise TypeError("segment simulation needs SegmentParams")
    return [SegmentState(eta, n_ell) for block in _sampled(config)
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
    right rate q) on the segment's lockstep runner (_run_dual) and weights
    each path by
    exp(-(p-q) rho0 * time at site 1 + (p-q) rho_ell * time at site ell);
    the weighted mean of H(initial; x(t)) estimates the same expectation as
    the dual-generator ODE solution at x0.
    """
    if not params.liggett2_ok():
        raise ValidityError("reweighting uses the boundary densities; Liggett required")
    SimConfig(params, t_end, trajectories, seed)  # the trajectory count, t_end and seed checks
    x0 = check_chamber(x0, 1, params.ell)
    rates = (params.ell, float(params.p_rate), float(params.q_rate), float(params.rho0),
             float(params.rho_ell), x0)
    if initial is None:
        initial = SegmentState.empty(params.ell)
    elif initial.ell != params.ell:
        raise ValidityError(f"initial state is on a segment with ell = {initial.ell}, "
                            f"params have ell = {params.ell}")
    # N_s of the initial state at each dual site s = 1, ..., ell; H's exponent at a final
    # state is their sum over its occupied sites
    counts = np.array([h_exponent_segment(initial.eta, initial.n_ell, (s,))
                       for s in range(1, params.ell + 1)])
    values = [weights * _powers(float(params.q), eta @ counts)
              for eta, weights in _blocks(_run_dual, rates, t_end, seed, 0, trajectories)]
    return McEstimate(x0, *_mean_se(np.concatenate(values)), trajectories)

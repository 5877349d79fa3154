"""Exact continuous-time simulation of half-line and segment open ASEP.

Rejection-free event scheduling: one exponential clock at the total active
rate, then a categorical pick among the active transitions.  The half-line
state is a sparse set of occupied sites, so the infinite-lattice dynamics
are simulated exactly with no truncation.  Trajectory i draws from
PCG64DXSM(SeedSequence(seed)).jumped(i), so estimates are reproducible
bit-for-bit regardless of execution order or worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .model import (AsepState, ModelParams, SegmentParams, SegmentState, ValidityError,
                    h_product, h_product_segment)


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


class _Draws:
    """Buffered uniform/exponential draws from one numpy Generator.

    Blocks are small because a trajectory has only a few events on average,
    and are kept as Python floats so that the event loops do float
    arithmetic rather than numpy-scalar arithmetic.
    """

    BLOCK = 16

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._uni = rng.random(self.BLOCK).tolist()
        self._exp = rng.standard_exponential(self.BLOCK).tolist()
        self._iu = 0
        self._ie = 0

    def uniform(self) -> float:
        if self._iu >= self.BLOCK:
            self._uni = self._rng.random(self.BLOCK).tolist()
            self._iu = 0
        v = self._uni[self._iu]
        self._iu += 1
        return v

    def exponential(self) -> float:
        if self._ie >= self.BLOCK:
            self._exp = self._rng.standard_exponential(self.BLOCK).tolist()
            self._ie = 0
        v = self._exp[self._ie]
        self._ie += 1
        return v


# the step numpy's PCG64DXSM.jumped() advances by, about 2**128 / phi
_JUMP = 0x9e3779b97f4a7c15f39cc0605cedc835


class _Streams:
    """One call's (or one worker chunk's) position on the stream of a seed.

    Restoring the start state and advancing by i jump steps puts the shared
    generator exactly where PCG64DXSM(SeedSequence(seed)).jumped(i) starts,
    without building a seed sequence and a generator per trajectory.
    """

    def __init__(self, seed: int):
        self.bits = np.random.PCG64DXSM(np.random.SeedSequence(seed))
        self.start = self.bits.state
        self.rng = np.random.Generator(self.bits)


def _rng_for(streams: _Streams, index: int) -> np.random.Generator:
    """The generator of trajectory `index`, equal to its jumped(index) stream."""
    streams.bits.state = streams.start
    streams.bits.advance(index * _JUMP)
    return streams.rng


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


def _halfline_finals(params: ModelParams, t_end: float, seed: int,
                     start: int, stop: int) -> Iterator[frozenset]:
    """Final occupied sets of trajectories start, ..., stop - 1."""
    rates = tuple(float(r) for r in (params.p_rate, params.q_rate, params.alpha, params.gamma))
    streams = _Streams(seed)
    for i in range(start, stop):
        yield _run_halfline(*rates, t_end, _Draws(_rng_for(streams, i)))


def _segment_finals(params: SegmentParams, t_end: float, seed: int,
                    start: int, stop: int) -> Iterator[Tuple[tuple, int]]:
    """Final (occupations, through-count) of trajectories start, ..., stop - 1."""
    rates = tuple(float(r) for r in (params.p_rate, params.q_rate, params.alpha,
                                     params.gamma, params.beta, params.delta))
    streams = _Streams(seed)
    for i in range(start, stop):
        yield _run_segment(params.ell, *rates, t_end, _Draws(_rng_for(streams, i)))


def _halfline_chunk(args) -> np.ndarray:
    params, t_end, seed, start, stop, observables = args
    qratio = float(params.q)
    out = np.empty((stop - start, len(observables)))
    for row, occ in enumerate(_halfline_finals(params, t_end, seed, start, stop)):
        out[row] = [h_product(occ, obs, qratio) for obs in observables]
    return out


def _segment_chunk(args) -> np.ndarray:
    params, t_end, seed, start, stop, observables = args
    qratio = float(params.q)
    out = np.empty((stop - start, len(observables)))
    for row, (eta, n_ell) in enumerate(_segment_finals(params, t_end, seed, start, stop)):
        out[row] = [h_product_segment(eta, n_ell, obs, qratio) for obs in observables]
    return out


def simulate_halfline(config: SimConfig, max_states: Optional[int] = None) -> List[AsepState]:
    """Final configurations, one exact CTMC sample per trajectory."""
    count = config.trajectories if max_states is None else min(max_states, config.trajectories)
    finals = _halfline_finals(config.params, config.t_end, config.seed, 0, count)
    return [AsepState(occ) for occ in finals]


def simulate_segment(config: SimConfig, max_states: Optional[int] = None) -> List[SegmentState]:
    """Final (occupations, through-count) samples for the segment process."""
    if not isinstance(config.params, SegmentParams):
        raise TypeError("segment simulation needs SegmentParams")
    count = config.trajectories if max_states is None else min(max_states, config.trajectories)
    finals = _segment_finals(config.params, config.t_end, config.seed, 0, count)
    return [SegmentState(eta, n_ell) for eta, n_ell in finals]


def _estimates_from_values(values: np.ndarray, observables, trajectories) -> List[McEstimate]:
    out = []
    for j, obs in enumerate(observables):
        col = values[:, j]
        mean = float(np.mean(col))
        if len(col) > 1:
            se = float(np.std(col, ddof=1) / math.sqrt(len(col)))
        else:
            se = 0.0
        out.append(McEstimate(tuple(obs), mean, se, trajectories))
    return out


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def estimate(config: SimConfig, threads: int = 1) -> List[McEstimate]:
    """Monte Carlo means and standard errors of the H-observables.

    Identical output for any thread count: trajectory i always draws from
    PCG64DXSM(SeedSequence(seed)).jumped(i).  At most one worker process
    runs per usable CPU, whatever `threads` asks for.
    """
    chunk_fn = _segment_chunk if isinstance(config.params, SegmentParams) else _halfline_chunk
    n = config.trajectories
    workers = min(threads, n, _usable_cpus())
    if workers <= 1:
        values = chunk_fn((config.params, config.t_end, config.seed, 0, n, config.observables))
    else:
        bounds = [k * n // workers for k in range(workers + 1)]
        jobs = [(config.params, config.t_end, config.seed, a, b, config.observables)
                for a, b in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(chunk_fn, jobs))
        values = np.vstack(parts)
    return _estimates_from_values(values, config.observables, n)


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
    x0 = tuple(int(v) for v in x0)
    ell = params.ell
    p, q = float(params.p_rate), float(params.q_rate)
    rho0, rho_ell = float(params.rho0), float(params.rho_ell)
    qratio = float(params.q)
    if initial is None:
        initial = SegmentState.empty(ell)
    values = np.empty(trajectories)
    streams = _Streams(seed)
    for i in range(trajectories):
        draws = _Draws(_rng_for(streams, i))
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
        weight = math.exp(-(p - q) * rho0 * time_left + (p - q) * rho_ell * time_right)
        values[i] = weight * float(h_product_segment(initial.eta, initial.n_ell, x, qratio))
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(trajectories)) if trajectories > 1 else 0.0
    return McEstimate(x0, mean, se, trajectories)

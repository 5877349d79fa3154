"""Exact continuous-time simulation of half-line and segment open ASEP.

Rejection-free event scheduling: one exponential clock at the total active
rate, then a categorical pick among the active transitions.  The half-line
state is a sparse set of occupied sites, so the infinite-lattice dynamics
are simulated exactly with no truncation.  Each trajectory draws from its
own seed-derived stream, making estimates reproducible bit-for-bit
regardless of execution order or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .model import (AsepState, ModelParams, SegmentParams, SegmentState,
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
            raise ValueError("need at least one trajectory")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")


@dataclass(frozen=True)
class McEstimate:
    observable: Tuple[int, ...]
    mean: float
    std_error: float
    trajectories: int


class _Draws:
    """Buffered uniform/exponential draws from one numpy Generator."""

    def __init__(self, rng: np.random.Generator, block: int = 256):
        self._rng = rng
        self._block = block
        self._uni = rng.random(block)
        self._exp = rng.standard_exponential(block)
        self._iu = 0
        self._ie = 0

    def uniform(self) -> float:
        if self._iu >= len(self._uni):
            self._uni = self._rng.random(self._block)
            self._iu = 0
        v = self._uni[self._iu]
        self._iu += 1
        return v

    def exponential(self) -> float:
        if self._ie >= len(self._exp):
            self._exp = self._rng.standard_exponential(self._block)
            self._ie = 0
        v = self._exp[self._ie]
        self._ie += 1
        return v


def _rng_for(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


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


def _run_segment(params: SegmentParams, t_end: float, draws: _Draws) -> Tuple[tuple, int]:
    ell = params.ell
    p, q = float(params.p_rate), float(params.q_rate)
    alpha, gamma = float(params.alpha), float(params.gamma)
    beta, delta = float(params.beta), float(params.delta)
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


def _halfline_chunk(args) -> np.ndarray:
    params, t_end, seed, start, stop, observables = args
    p, q = float(params.p_rate), float(params.q_rate)
    alpha, gamma = float(params.alpha), float(params.gamma)
    qratio = float(params.q)
    out = np.empty((stop - start, len(observables)))
    for i in range(start, stop):
        occ = _run_halfline(p, q, alpha, gamma, t_end, _Draws(_rng_for(seed, i)))
        for j, obs in enumerate(observables):
            out[i - start, j] = h_product(occ, obs, qratio)
    return out


def _segment_chunk(args) -> np.ndarray:
    params, t_end, seed, start, stop, observables = args
    qratio = float(params.q)
    out = np.empty((stop - start, len(observables)))
    for i in range(start, stop):
        eta, n_ell = _run_segment(params, t_end, _Draws(_rng_for(seed, i)))
        for j, obs in enumerate(observables):
            out[i - start, j] = h_product_segment(eta, n_ell, obs, qratio)
    return out


def simulate_halfline(config: SimConfig, max_states: Optional[int] = None) -> List[AsepState]:
    """Final configurations, one exact CTMC sample per trajectory."""
    count = config.trajectories if max_states is None else min(max_states, config.trajectories)
    out = []
    p, q = float(config.params.p_rate), float(config.params.q_rate)
    alpha, gamma = float(config.params.alpha), float(config.params.gamma)
    for i in range(count):
        occ = _run_halfline(p, q, alpha, gamma, config.t_end, _Draws(_rng_for(config.seed, i)))
        out.append(AsepState(occ))
    return out


def simulate_segment(config: SimConfig, max_states: Optional[int] = None) -> List[SegmentState]:
    """Final (occupations, through-count) samples for the segment process."""
    if not isinstance(config.params, SegmentParams):
        raise TypeError("segment simulation needs SegmentParams")
    count = config.trajectories if max_states is None else min(max_states, config.trajectories)
    out = []
    for i in range(count):
        eta, n_ell = _run_segment(config.params, config.t_end, _Draws(_rng_for(config.seed, i)))
        out.append(SegmentState(eta, n_ell))
    return out


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


def estimate(config: SimConfig, threads: int = 1) -> List[McEstimate]:
    """Monte Carlo means and standard errors of the H-observables.

    Identical output for any thread count: trajectory i always uses the
    stream spawned from (seed, i).
    """
    chunk_fn = _segment_chunk if isinstance(config.params, SegmentParams) else _halfline_chunk
    n = config.trajectories
    if threads <= 1:
        values = chunk_fn((config.params, config.t_end, config.seed, 0, n, config.observables))
    else:
        bounds = np.linspace(0, n, threads + 1).astype(int)
        jobs = [(config.params, config.t_end, config.seed, int(a), int(b), config.observables)
                for a, b in zip(bounds, bounds[1:]) if b > a]
        with ProcessPoolExecutor(max_workers=threads) as pool:
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
        raise ValueError("reweighting uses the boundary densities; Liggett required")
    x0 = tuple(int(v) for v in x0)
    ell = params.ell
    p, q = float(params.p_rate), float(params.q_rate)
    rho0, rho_ell = float(params.rho0), float(params.rho_ell)
    qratio = float(params.q)
    if initial is None:
        initial = SegmentState.empty(ell)
    values = np.empty(trajectories)
    for i in range(trajectories):
        draws = _Draws(_rng_for(seed, i))
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

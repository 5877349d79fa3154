"""Host-speed normalisation of measured times.

The benchmark shares a few cores of a host with other tenants, and the
speed of one core drifts with their load: a fixed pure-Python loop here
ran up to 1.6 times slower for tens of seconds at a time.  Between runs
that drift, not the program, dominated every wall-clock time metric
(quartile distance over median 0.15 to 0.37 over 5 seeds).

So the run times a fixed gauge of its own, about every GAUGE_EVERY_S
seconds between ops, and scales each op's measured time by
REFERENCE_GAUGE_S / (the mean of the gauges taken just before and just
after it).  A scaled time reads as seconds on a host where the gauge takes
REFERENCE_GAUGE_S, about an unloaded core of a 2-core x86_64 host (Python
3.11, numpy 2.4).  The gauge never calls asep_lab, so a change to the
library moves the scaled times in the same proportion as the wall-clock
ones, while a slowdown of the whole host moves gauge and op alike and
cancels.

The gauge mixes the three kinds of work the workloads are made of: a
Python integer loop, Fraction arithmetic (the exact duality sweeps) and
numpy calls on small arrays and fresh generators (quadrature and the
simulator).  Each part alone left spreads up to 0.2 on some workload;
their sum kept every time metric of lowdim-checks, montecarlo and
exact-dual under 0.08 (5 seeds).  It steadies moments-4pt less, whose
few 3 s ops leave the gauge little to track between them.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

REFERENCE_GAUGE_S = 5e-3
GAUGE_EVERY_S = 0.05

_ARRAY = np.linspace(0.0, 1.0, 50_000)


def _work():
    total = 0
    for i in range(8000):
        total += i * i
    for i in range(1, 250):
        Fraction(i, i + 7) * Fraction(3, 5) + Fraction(1, i) - Fraction(2, i + 3)
    for i in range(40):
        np.random.default_rng(i).random(64)
    np.exp(_ARRAY).sum()
    return total


def gauge() -> float:
    """Seconds the fixed gauge work takes now."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


_work()   # first-call costs (numpy dispatch, generator set-up) stay out of every reading


class Clock:
    """Gauge readings taken between ops, and the scaling they imply.

    ``tick()`` after each op takes a reading once GAUGE_EVERY_S seconds have
    passed since the last one; ``mark()`` returns the index of the last
    reading, to be kept with each op; ``scale(mark)`` is the factor for an
    op that ran after reading ``mark`` and before reading ``mark + 1``.
    """

    def __init__(self):
        self.readings = [gauge()]
        self._last = perf_counter()

    def mark(self) -> int:
        return len(self.readings) - 1

    def tick(self, force: bool = False):
        if force or perf_counter() - self._last >= GAUGE_EVERY_S:
            self.readings.append(gauge())
            self._last = perf_counter()

    def scale(self, mark: int) -> float:
        after = self.readings[min(mark + 1, len(self.readings) - 1)]
        return REFERENCE_GAUGE_S / ((self.readings[mark] + after) / 2)

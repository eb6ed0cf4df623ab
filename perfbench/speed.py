"""Host speed: a fixed calibration kernel, timed between program sessions.

The benchmark runs on a few cores of a shared host whose speed shifts
between regimes about 1.6x apart that last minutes (see README "Measured
spread"): a run measures whichever regime it lands in, and no bound the
benchmark may set covers that.  So run.py times this kernel in its own
process after every program session, while nothing else of the run is
busy, and scales every timed sample to a reference host speed: a time is
multiplied by ``REFERENCE_S`` over the kernel's time around it, a rate
divided by it.  A change to the program moves the sample and leaves the
kernel alone, so it still shows in full; a slow spell of the host moves
both and cancels.

One pass of the kernel is noisy (about +-10 % pass to pass), so a
sample's kernel time is the median of the ``NEAREST`` passes nearest it
in time: that follows a regime that lasts minutes without passing one
pass's noise on to the sample.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List, Tuple

import numpy as np

# Kernel time, in seconds, that defines the reference speed: about what a
# pass takes on a 2-CPU x86_64 VM in its faster regime.  Only ratios
# between runs matter, so the value is fixed, never re-measured.
REFERENCE_S = 0.07
# Passes whose median gives a sample's kernel time.
NEAREST = 9

_VALUES = np.linspace(0.0, 10.0, 200_000)


def kernel_s() -> float:
    """Seconds one pass of the fixed kernel takes: a Python loop, then numpy.

    The mix mirrors the program's: interpreter-bound loops and numpy calls.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(200_000):
        acc += math.sqrt(i)
    for _ in range(20):
        np.sort(np.exp(-_VALUES) * np.arctan(_VALUES))
    return time.perf_counter() - start


class HostSpeed:
    """Kernel passes over a run, and the speed scale of any interval in it."""

    def __init__(self) -> None:
        # (midpoint on the perf_counter clock, seconds) of every pass.
        self.passes: List[Tuple[float, float]] = []

    def probe(self) -> None:
        start = time.perf_counter()
        seconds = kernel_s()
        self.passes.append((start + seconds / 2.0, seconds))

    def kernel_near(self, start: float, end: float) -> float:
        """Median kernel time of the ``NEAREST`` passes nearest ``[start, end]``."""
        if not self.passes:
            raise ValueError("no kernel pass recorded")
        mid = (start + end) / 2.0
        nearest = sorted(self.passes, key=lambda p: abs(p[0] - mid))[:NEAREST]
        return statistics.median(seconds for _, seconds in nearest)

    def scale(self, start: float, end: float) -> float:
        """Factor taking a time measured over ``[start, end]`` to the reference speed."""
        return REFERENCE_S / self.kernel_near(start, end)

    def median_s(self) -> float:
        return statistics.median(seconds for _, seconds in self.passes)

"""Summary statistics the benchmark reports.

Kept free of any ``repro`` import so the benchmark's own tests and the
result assembly run without the program under test.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

# A tail percentile is only reported when at least this many samples lie
# beyond it; with fewer the "tail" would be one or two cells' noise.
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(
    values: Sequence[float], min_beyond: int = TAIL_MIN_BEYOND
) -> Tuple[int, float, int]:
    """The highest integer percentile with ``min_beyond`` samples above it.

    Returns ``(percentile, value, samples_beyond)``.  Nearest-rank: the
    ``p``-th percentile of ``N`` samples is the ``ceil(p * N / 100)``-th
    smallest, and ``N - rank`` samples lie beyond it.  With ``N <=
    min_beyond`` no percentile qualifies; the maximum is returned as
    ``(100, max, 0)`` so the caller can still print a number and the
    zero says how little it means.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    for pct in range(99, 0, -1):
        rank = max(1, math.ceil(pct * n / 100.0))
        if n - rank >= min_beyond:
            return pct, ordered[rank - 1], n - rank
    return 100, ordered[-1], 0


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the pass rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf

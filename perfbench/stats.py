"""Percentiles and the tail rule.

The tail of a latency sample is the highest of :data:`TAIL_PERCENTILES`
that still has at least :data:`MIN_BEYOND` samples beyond it, so a tail
is never read off a handful of outliers; every report names the
percentile and the sample count it came from.
"""

from __future__ import annotations

import math

TAIL_PERCENTILES = (90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def rank(count: int, percentile: float) -> int:
    """1-based nearest rank of *percentile* in *count* sorted samples."""
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    return max(1, math.ceil(round(percentile / 100.0 * count, 9)))


def percentile(ordered: list, percentile_: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[rank(len(ordered), percentile_) - 1]


def tail_percentile(count: int) -> float:
    """The highest tail percentile with >= MIN_BEYOND samples beyond it.

    Falls back to the median for samples too small for any tail.
    """
    chosen = 50.0
    for candidate in TAIL_PERCENTILES:
        if count - rank(count, candidate) >= MIN_BEYOND:
            chosen = candidate
    return chosen


def tail(values: list) -> tuple:
    """``(percentile, value)`` of the tail of *values*, by :func:`tail_percentile`."""
    ordered = sorted(values)
    chosen = tail_percentile(len(ordered))
    return chosen, percentile(ordered, chosen)

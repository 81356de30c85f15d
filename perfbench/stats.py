"""Order statistics used for the end-to-end figures."""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q`` of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    ordered = sorted(values)
    return ordered[_rank(q, len(ordered)) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank ``q`` percentile rank."""
    return count - _rank(q, count)


def _rank(q: float, count: int) -> int:
    # Rounding first absorbs float error: 0.55 * 100 is 55.00000000000001, rank 55 not 56.
    return max(1, math.ceil(round(q * count, 9)))


def min_samples(q: float) -> int:
    """Fewest samples for which the ``q`` percentile has :data:`MIN_BEYOND` samples beyond it."""
    count = 1
    while samples_beyond(count, q) < MIN_BEYOND:
        count += 1
    return count


def relative_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median

"""Order statistics the benchmark reports: medians, tail percentiles, spreads.

Every end-to-end timing is a median over many operations of one run; a tail
is reported only at the highest percentile that still has at least
:data:`MIN_BEYOND` samples beyond it, so a "p99" never rests on one or two
outliers.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A tail percentile is reported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.0, 90.0)


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between order statistics."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the ``q``-th percentile rank."""
    return count - 1 - math.floor((count - 1) * q / 100.0)


def tail_percentile(count: int, candidates: Sequence[float] = TAIL_PERCENTILES) -> Optional[float]:
    """The highest candidate percentile with at least :data:`MIN_BEYOND` samples beyond it.

    ``None`` when the sample is too small for any candidate.
    """
    for q in sorted(candidates, reverse=True):
        if samples_beyond(count, q) >= MIN_BEYOND:
            return q
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (``statistics.quantiles``, n=4)."""
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else math.inf


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when the base is empty."""
    return numerator / denominator if denominator else 0.0


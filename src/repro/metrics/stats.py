"""Shared summary statistics: percentiles and latency summaries.

Sustained-load experiments care about the tail, not just the mean: an
autoscaler that keeps p50 flat while p99 explodes is not keeping its SLO.
Every consumer of latency distributions (the traffic engine's SLO accounting,
trace replay, figure summaries) goes through these helpers so "p95" means the
same thing everywhere in the reproduction.

Percentiles use linear interpolation between closest ranks (the numpy
default), which is exact for the small sample counts the simulated
experiments produce and monotone in the requested quantile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class StatsError(ValueError):
    """Raised for empty samples or out-of-range quantiles."""


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    if not values:
        raise StatsError("cannot take a percentile of zero samples")
    if not 0.0 <= q <= 100.0:
        raise StatsError("percentile must be in [0, 100], got %r" % q)
    return _interpolate(sorted(values), q)


def _interpolate(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of already-sorted, non-empty ``ordered``."""
    rank = (len(ordered) - 1) * (q / 100.0)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def p50(values: Sequence[float]) -> float:
    """Median."""
    return percentile(values, 50.0)


def p95(values: Sequence[float]) -> float:
    """95th percentile."""
    return percentile(values, 95.0)


def p99(values: Sequence[float]) -> float:
    """99th percentile."""
    return percentile(values, 99.0)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean."""
    if not values:
        raise StatsError("cannot take the mean of zero samples")
    return sum(values) / len(values)


@dataclass(frozen=True)
class LatencySummary:
    """One latency distribution collapsed to the numbers reports print."""

    count: int
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    @classmethod
    def from_samples(cls, values: Sequence[float]) -> "LatencySummary":
        """Summarize ``values`` with one sort.

        The mean sums ``values`` in their given order, not the sorted copy,
        so it matches :func:`mean` to the last bit.
        """
        if not values:
            raise StatsError("cannot summarize zero samples")
        ordered = sorted(values)
        return cls(
            count=len(values),
            mean_s=sum(values) / len(values),
            p50_s=_interpolate(ordered, 50.0),
            p95_s=_interpolate(ordered, 95.0),
            p99_s=_interpolate(ordered, 99.0),
            max_s=ordered[-1],
        )

    @classmethod
    def empty(cls) -> "LatencySummary":
        """The all-zero summary (no requests completed)."""
        return cls(count=0, mean_s=0.0, p50_s=0.0, p95_s=0.0, p99_s=0.0, max_s=0.0)

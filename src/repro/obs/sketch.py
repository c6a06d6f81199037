"""Streaming quantile sketches: percentiles without retaining the samples.

A sustained-load run at production scale produces millions of per-request
latencies; keeping them all in a list just to read off p99 at the end costs
memory in proportion to the run.  A constant-memory estimator replaces the
list:

* :class:`LogHistogram` — fixed-size log-spaced buckets (the HDR-histogram
  idea): every observation lands in the bucket whose bounds are within a
  fixed *relative* growth factor of each other, so any quantile reads back
  within ``sqrt(growth) - 1`` relative error (≈0.4% at the default growth)
  regardless of sample order, autocorrelation, or distribution shape.
  Order-insensitivity matters here: the engine's sketch mode
  (``TrafficConfig.retain_records=False``) feeds latencies in arrival
  order, and those are strongly autocorrelated (queues build and drain in
  waves).
* :class:`QuantileSketch` — the summary object everything else consumes:
  one histogram plus the exact running sum, min and max.  The
  ``benchmarks/test_obs_overhead.py`` gate pins its p50/p95/p99 to within
  1% of the exact order statistics on a 100k-request run.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from repro.metrics.stats import LatencySummary


class SketchError(ValueError):
    """Raised for invalid sketch parameters."""


class LogHistogram:
    """Log-spaced bucket counts: any quantile within a fixed relative error.

    Bucket ``i`` covers ``[floor * growth**(i-1), floor * growth**i)``; an
    observation costs one ``log`` and one increment, and a quantile read
    returns the geometric midpoint of the bucket holding the target rank —
    off by at most ``sqrt(growth) - 1`` relative (≈0.4% at the default
    growth of 1.008).  Values below ``floor`` collapse into the first
    bucket (for latencies, sub-nanosecond — exactly where relative error
    stops mattering); values beyond the last bucket clamp into it, and the
    exact running min/max bound every answer, so the extremes never drift.
    """

    def __init__(self, floor: float = 1e-9, growth: float = 1.008, buckets: int = 4096) -> None:
        if floor <= 0.0:
            raise SketchError("histogram floor must be positive, got %r" % floor)
        if growth <= 1.0:
            raise SketchError("histogram growth must exceed 1, got %r" % growth)
        if buckets < 2:
            raise SketchError("histogram needs at least 2 buckets, got %r" % buckets)
        self.floor = floor
        self.growth = growth
        self._counts = [0] * buckets
        self._inv_log_growth = 1.0 / math.log(growth)
        self._log_floor = math.log(floor)
        self._count = 0
        self._min = 0.0
        self._max = 0.0

    @property
    def count(self) -> int:
        return self._count

    def _index(self, value: float) -> int:
        if value < self.floor:
            return 0
        index = int((math.log(value) - self._log_floor) * self._inv_log_growth) + 1
        return min(index, len(self._counts) - 1)

    def add(self, value: float) -> None:
        value = float(value)
        if self._count == 0:
            self._min = self._max = value
        else:
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
        self._count += 1
        # _index() unrolled: this method runs a dozen times per simulated
        # request, and the extra frame per observation is measurable there.
        counts = self._counts
        if value < self.floor:
            index = 0
        else:
            index = int((math.log(value) - self._log_floor) * self._inv_log_growth) + 1
            last = len(counts) - 1
            if index > last:
                index = last
        counts[index] += 1

    def clone(self) -> "LogHistogram":
        """An independent copy with identical contents (copy-on-write forks)."""
        other = LogHistogram(
            floor=self.floor, growth=self.growth, buckets=len(self._counts)
        )
        other._counts = list(self._counts)
        other._count = self._count
        other._min = self._min
        other._max = self._max
        return other

    def quantile(self, q: float) -> float:
        """The estimated ``q``-quantile (0.0 before any sample)."""
        if not 0.0 < q < 1.0:
            raise SketchError("quantile must be in (0, 1), got %r" % q)
        if self._count == 0:
            return 0.0
        rank = q * (self._count - 1) + 1.0  # same convention as stats.percentile
        seen = 0
        for index, bucket_count in enumerate(self._counts):
            seen += bucket_count
            if seen >= rank:
                if index == 0:
                    estimate = self._min
                else:
                    # Geometric midpoint of [floor*g^(i-1), floor*g^i).
                    estimate = self.floor * self.growth ** (index - 0.5)
                return min(max(estimate, self._min), self._max)
        return self._max


class QuantileSketch:
    """A full streaming distribution summary: p50/p95/p99, mean, min, max.

    The streaming replacement for ``LatencySummary.from_samples`` over a
    retained sample list: feed observations one at a time, read a
    :class:`~repro.metrics.stats.LatencySummary` off at any point.  One
    log-bucketed histogram plus four scalars — constant memory at any
    sample count, and insensitive to the heavy autocorrelation of
    arrival-ordered latency streams.
    """

    #: Quantiles every summary/exposition prints (any (0, 1) quantile works).
    QUANTILES = (0.5, 0.95, 0.99)

    def __init__(self) -> None:
        self._histogram = LogHistogram()
        self._sum = 0.0

    @property
    def count(self) -> int:
        return self._histogram.count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self.count if self.count else 0.0

    @property
    def max(self) -> float:
        return self._histogram._max

    @property
    def min(self) -> float:
        return self._histogram._min

    def observe(self, value: float) -> None:
        self._sum += float(value)
        self._histogram.add(value)

    def observe_many(self, values: Sequence[float]) -> None:
        for value in values:
            self.observe(value)

    def clone(self) -> "QuantileSketch":
        """An independent copy with identical contents (copy-on-write forks)."""
        other = QuantileSketch()
        other._histogram = self._histogram.clone()
        other._sum = self._sum
        return other

    def quantile(self, q: float) -> float:
        """The estimate for any quantile in (0, 1)."""
        return self._histogram.quantile(q)

    def quantiles(self) -> Dict[float, float]:
        return {q: self._histogram.quantile(q) for q in self.QUANTILES}

    def summary(self) -> LatencySummary:
        """Collapse the sketch to the same shape record-based rollups use."""
        if self.count == 0:
            return LatencySummary.empty()
        return LatencySummary(
            count=self.count,
            mean_s=self.mean,
            p50_s=self.quantile(0.5),
            p95_s=self.quantile(0.95),
            p99_s=self.quantile(0.99),
            max_s=self.max,
        )

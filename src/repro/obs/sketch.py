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
  a default-shaped histogram read back as p50/p95/p99, mean and max.  The
  ``benchmarks/test_obs_overhead.py`` gate pins its p50/p95/p99 to within
  1% of the exact order statistics on a 100k-request run.

Every :class:`QuantileSketch` has the same histogram shape, so a value's
bucket is the same in all of them: :func:`bucket_index` computes it once and
:meth:`QuantileSketch.observe_at` folds the value in at that bucket, which
is how one finished request feeds several streams for the price of one
``log`` per stage.
"""

from __future__ import annotations

import bisect
import copy
import itertools
import math
from typing import Dict, List, Sequence

from repro.metrics.stats import LatencySummary


class SketchError(ValueError):
    """Raised for invalid sketch parameters."""


#: Lower edge of the first histogram bucket, the bucket growth factor and
#: the bucket count: 4096 buckets of 0.8% cover 1 ns to beyond 10^5 s.
HISTOGRAM_FLOOR = 1e-9
HISTOGRAM_GROWTH = 1.008
HISTOGRAM_BUCKETS = 4096


class LogHistogram:
    """Log-spaced bucket counts: any quantile within a fixed relative error.

    Bucket ``i`` covers ``[floor * growth**(i-1), floor * growth**i)``; an
    observation costs one ``log`` and one increment, and a quantile read
    returns the geometric midpoint of the bucket holding the target rank —
    off by at most ``sqrt(growth) - 1`` relative (≈0.4% at a growth of
    1.008).  Values below ``floor`` collapse into the first
    bucket (for latencies, sub-nanosecond — exactly where relative error
    stops mattering); values beyond the last bucket clamp into it, and the
    exact running min/max bound every answer, so the extremes never drift.
    The exact running sum rides along for means.
    """

    def __init__(self) -> None:
        self.floor = HISTOGRAM_FLOOR
        self.growth = HISTOGRAM_GROWTH
        self._counts = [0] * HISTOGRAM_BUCKETS
        self._last = HISTOGRAM_BUCKETS - 1
        self._inv_log_growth = 1.0 / math.log(HISTOGRAM_GROWTH)
        self._log_floor = math.log(HISTOGRAM_FLOOR)
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0

    @property
    def count(self) -> int:
        return self._count

    def index(self, value: float) -> int:
        """The bucket ``value`` falls in (below ``floor``: 0; past the end: the last)."""
        if value < self.floor:
            return 0
        index = int((math.log(value) - self._log_floor) * self._inv_log_growth) + 1
        return index if index < self._last else self._last

    def add(self, value: float) -> None:
        value = float(value)
        # index() and add_at() unrolled: this method runs a dozen times per
        # simulated request, and each extra frame per observation is
        # measurable there.
        if value < self.floor:
            index = 0
        else:
            index = int((math.log(value) - self._log_floor) * self._inv_log_growth) + 1
            if index > self._last:
                index = self._last
        if self._count == 0:
            self._min = self._max = value
        else:
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
        self._count += 1
        self._sum += value
        self._counts[index] += 1

    def add_at(self, value: float, index: int) -> None:
        """Count a float ``value`` into bucket ``index``, which must be ``self.index(value)``."""
        if self._count == 0:
            self._min = self._max = value
        else:
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
        self._count += 1
        self._sum += value
        self._counts[index] += 1

    def clone(self) -> "LogHistogram":
        """An independent copy with identical contents (copy-on-write forks)."""
        other = copy.copy(self)
        other._counts = list(self._counts)
        return other

    def quantile(self, q: float) -> float:
        """The estimated ``q``-quantile (0.0 before any sample)."""
        return self.quantile_many((q,))[0]

    def quantile_many(self, qs: Sequence[float]) -> List[float]:
        """The estimates for several quantiles from one walk over the buckets.

        Each answer is the bucket holding the target rank (the first whose
        running count reaches it), read back as the bucket's geometric
        midpoint and clamped to the exact min/max.
        """
        for q in qs:
            if not 0.0 < q < 1.0:
                raise SketchError("quantile must be in (0, 1), got %r" % q)
        if self._count == 0:
            return [0.0 for _ in qs]
        running = list(itertools.accumulate(self._counts))
        last = self._count - 1
        # Same rank convention as stats.percentile.
        return [self._estimate(bisect.bisect_left(running, q * last + 1.0)) for q in qs]

    def _estimate(self, index: int) -> float:
        if index > self._last:
            return self._max
        if index == 0:
            estimate = self._min
        else:
            # Geometric midpoint of [floor*g^(i-1), floor*g^i).
            estimate = self.floor * self.growth ** (index - 0.5)
        return min(max(estimate, self._min), self._max)


class QuantileSketch(LogHistogram):
    """A full streaming distribution summary: p50/p95/p99, mean, min, max.

    The streaming replacement for ``LatencySummary.from_samples`` over a
    retained sample list: feed observations one at a time, read a
    :class:`~repro.metrics.stats.LatencySummary` off at any point.  A
    default-shaped log histogram with its exact count, sum, min and max —
    constant memory at any sample count, and insensitive to the heavy
    autocorrelation of arrival-ordered latency streams.
    """

    #: Quantiles every summary/exposition prints (any (0, 1) quantile works).
    QUANTILES = (0.5, 0.95, 0.99)

    def __init__(self) -> None:
        # Always the default shape, so bucket_index() holds for every sketch.
        super().__init__()

    #: Fold in one value; ``observe_at(value, bucket_index(value))`` is the
    #: same for a float whose bucket the caller already knows.
    observe = LogHistogram.add
    observe_at = LogHistogram.add_at

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max

    @property
    def min(self) -> float:
        return self._min

    def quantiles(self) -> Dict[float, float]:
        return dict(zip(self.QUANTILES, self.quantile_many(self.QUANTILES)))

    def summary(self) -> LatencySummary:
        """Collapse the sketch to the same shape record-based rollups use."""
        if self._count == 0:
            return LatencySummary.empty()
        p50, p95, p99 = self.quantile_many(self.QUANTILES)
        return LatencySummary(
            count=self._count,
            mean_s=self.mean,
            p50_s=p50,
            p95_s=p95,
            p99_s=p99,
            max_s=self._max,
        )


#: The bucket a value falls in, in every :class:`QuantileSketch` (they all
#: have the default histogram shape).
bucket_index = LogHistogram().index

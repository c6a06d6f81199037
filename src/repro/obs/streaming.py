"""SLO accounting: the one rollup behind every summary and waterfall.

:class:`StreamingTrafficStats` keeps outcome counters and one distribution
per stage for the whole scope and per scheduling class.  ``summary()``
reads off the :class:`~repro.traffic.slo.TrafficSummary` and ``waterfall()``
the per-class stage rows the waterfall table renders.  The formulas exist
only here; the two modes differ only in the distribution object and in how
a finished request gets folded in:

* **sketch mode** (``TrafficConfig(retain_records=False)``) folds every
  request at completion, from its scalars, into
  :class:`~repro.obs.sketch.QuantileSketch` instances and forgets it —
  constant memory, sketch-estimated percentiles.  :meth:`Rollups.fold`
  does it in one frame: each stage's bucket is computed once per request,
  and the finest rollup the request belongs to (its tenant's, in its
  region) is updated in place, with no per-value call.  The coarser
  rollups (the region's cluster, a federation's tenant and cluster) are
  folded once and read merged: per request they keep only each stage's
  running ``_sum`` and their served-sketch forks; counters, bucket
  counts, min and max are merged from their member rollups when first
  read (:meth:`StreamingTrafficStats.summary` and the other readers),
  class by class, adding each member's occupied buckets only.  The float
  sum is the one field whose rounding depends on fold order, so it is the
  one kept running;
* **exact mode** keeps its records (the exports need them) and folds them
  at rollup time, in request-id order, through :func:`fold_records` into
  :class:`ExactSamples`, which retain every sample packed — the exact
  means and percentiles.  Each array is sorted once, for its summary.

In both modes a scope's served-latency distribution *is* its completed
stage-latency one until the scope's first cached or coalesced outcome
forks it (copy-on-write, as the sole class shares the totals).

Reports, exporters and figures are therefore agnostic to which mode fed them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.stats import LatencySummary
from repro.obs.sketch import QuantileSketch, bucket_index
from repro.obs.spans import WaterfallRow
from repro.traffic.slo import (
    SERVED_OUTCOMES,
    ClassSummary,
    RequestOutcome,
    RequestRecord,
    SloError,
    TrafficSummary,
    _replica_seconds,
)

# Bound once: on CPython 3.11 looking a member up on its enum class is
# over 20x slower than reading a module global, and every fold tests it.
_COMPLETED = RequestOutcome.COMPLETED

#: The outcome and deadline counters of one :class:`_ClassStats`.
_COUNTERS = (
    "offered", "completed", "timed_out", "dropped", "shed", "cached", "coalesced",
    "rate_limited", "rejected", "deadline_total", "deadline_met",
)


class ExactSamples:
    """An exact distribution: every sample, packed, in fold order.

    The exact-mode backend of :class:`StreamingTrafficStats`, with the part
    of the :class:`~repro.obs.sketch.QuantileSketch` surface the rollup
    uses.  :func:`fold_records` appends to :attr:`values` directly.  The
    summary sums the samples in fold order and interpolates one sort,
    exactly as ``LatencySummary.from_samples`` does, and is kept until
    more samples arrive, so the summary tables and the waterfall sort each
    array once between them.
    """

    __slots__ = ("values", "_summary")

    def __init__(self, values: Optional[array] = None) -> None:
        self.values = array("d") if values is None else values
        self._summary: Optional[LatencySummary] = None

    def summary(self) -> LatencySummary:
        values = self.values
        summary = self._summary
        if summary is None or summary.count != len(values):
            summary = LatencySummary.from_samples(values) if values else LatencySummary.empty()
            self._summary = summary
        return summary

    def clone(self) -> "ExactSamples":
        return ExactSamples(array("d", self.values))


#: The stage fields of :class:`StageSketches`.
_STAGES = ("latency", "queueing", "service", "cold_wait")


@dataclass
class StageSketches:
    """The four stage distributions one scope (tenant or class) tracks."""

    latency: QuantileSketch
    queueing: QuantileSketch
    service: QuantileSketch
    cold_wait: QuantileSketch

    def clone(self) -> "StageSketches":
        return StageSketches(
            latency=self.latency.clone(),
            queueing=self.queueing.clone(),
            service=self.service.clone(),
            cold_wait=self.cold_wait.clone(),
        )


@dataclass
class _ClassStats:
    """Streaming counterpart of one :class:`ClassSummary`."""

    stages: StageSketches
    #: Served latency (completed + cached + coalesced) — the stage sketches
    #: stay completed-only so waterfalls keep their backend-stage meaning.
    #: Until the first cached or coalesced outcome it holds exactly the
    #: completed latencies, so it *is* ``stages.latency`` (see
    #: :meth:`served_apart`).
    latency_served: QuantileSketch
    offered: int = 0
    completed: int = 0
    timed_out: int = 0
    dropped: int = 0
    shed: int = 0
    cached: int = 0
    coalesced: int = 0
    rate_limited: int = 0
    rejected: int = 0
    deadline_total: int = 0
    deadline_met: int = 0

    def served_apart(self) -> QuantileSketch:
        """The served-latency distribution, forked off the stage one if shared.

        Called before the first served latency that is not a completion:
        from then on the two distributions differ.
        """
        served = self.latency_served
        if served is self.stages.latency:
            served = self.latency_served = served.clone()
        return served

    def summary(self, name: str) -> ClassSummary:
        return ClassSummary(
            name=name,
            offered=self.offered,
            completed=self.completed,
            timed_out=self.timed_out,
            dropped=self.dropped,
            shed=self.shed,
            cached=self.cached,
            coalesced=self.coalesced,
            rate_limited=self.rate_limited,
            rejected=self.rejected,
            deadline_total=self.deadline_total,
            deadline_met=self.deadline_met,
            latency=self.latency_served.summary(),
        )

    def clone(self) -> "_ClassStats":
        stages = self.stages.clone()
        shared = self.latency_served is self.stages.latency
        return replace(
            self,
            stages=stages,
            latency_served=stages.latency if shared else self.latency_served.clone(),
        )

    def absorb(self, parts: Sequence["_ClassStats"]) -> None:
        """Become ``parts`` merged: every field but the running sums.

        The served sketch merges apart only when it is forked, and then
        every part's served sketch is its scope's served latencies.
        """
        for name in _COUNTERS:
            setattr(self, name, sum(getattr(part, name) for part in parts))
        stages = self.stages
        for name in _STAGES:
            getattr(stages, name).absorb([getattr(part.stages, name) for part in parts])
        if self.latency_served is not stages.latency:
            self.latency_served.absorb([part.latency_served for part in parts])

    @classmethod
    def over(cls, make: Callable[[], QuantileSketch]) -> "_ClassStats":
        """Zeroed counters over fresh ``make()`` distributions."""
        latency = make()
        return cls(
            stages=StageSketches(latency, make(), make(), make()), latency_served=latency
        )


class StreamingTrafficStats:
    """The rollup of one request stream (a tenant, a cluster or a federation)."""

    #: The distribution every stage and class folds into; sketches unless
    #: built by :meth:`of_records`.
    _distribution: Callable[[], QuantileSketch] = QuantileSketch

    def __init__(self, declared_classes: Sequence[str] = ()) -> None:
        #: Every outcome across classes; its stage sketches are the scope's.
        self._totals = _ClassStats.over(self._distribution)
        self._classes: Dict[str, _ClassStats] = {}
        #: Per class, the accumulators one of its requests folds into: the
        #: totals, then the class's own unless that is the totals.
        self._scopes: Dict[str, Tuple[_ClassStats, ...]] = {}
        #: A coarser rollup's members, the finest rollups folded in full
        #: (see :class:`Rollups`), and the requests they had offered when
        #: last merged in.
        self._members: List[StreamingTrafficStats] = []
        self._merged = 0
        for name in declared_classes:
            self._class_stats(name)

    def _read(self) -> None:
        """Merge the members in, if any request folded since the last merge.

        Every scope but the running sums is rebuilt from the members: the
        totals from theirs, each class from their class of that name.  A
        class that is the totals (the sole class) is merged with it.
        """
        members = self._members
        if not members:
            return
        offered = sum(member._totals.offered for member in members)
        if offered == self._merged:
            return
        totals = self._totals
        totals.absorb([member._totals for member in members])
        for name, stats in self._classes.items():
            if stats is not totals:
                stats.absorb(
                    [member._classes[name] for member in members if name in member._classes]
                )
        self._merged = offered

    @property
    def offered(self) -> int:
        self._read()
        return self._totals.offered

    @property
    def stages(self) -> StageSketches:
        """The scope-wide stage sketches (completed requests only)."""
        self._read()
        return self._totals.stages

    def _class_stats(self, name: str) -> _ClassStats:
        """The per-class accumulator, creating it on first sight.

        While exactly one class exists it holds exactly the scope-wide
        contents, so the sole class *is* the totals object (and a fold
        updates it once).  The moment a second class appears, the sole
        class forks into an independent copy — identical content, tracked
        separately from then on.
        """
        per_class = self._classes.get(name)
        if per_class is None:
            totals = self._totals
            if len(self._classes) == 1:
                (sole,) = self._classes
                if self._classes[sole] is totals:
                    fork = self._classes[sole] = totals.clone()
                    self._scopes[sole] = (totals, fork)
            per_class = _ClassStats.over(self._distribution) if self._classes else totals
            self._classes[name] = per_class
            self._scopes[name] = (totals,) if per_class is totals else (totals, per_class)
        return per_class

    def scopes(self, request_class: str) -> Tuple[_ClassStats, ...]:
        """The accumulators a request of ``request_class`` folds into.

        Resolving the class first matters: a new class forks the sole
        class off the totals, and that copy must not include the request.
        """
        scopes = self._scopes.get(request_class)
        if scopes is None:
            self._class_stats(request_class)
            scopes = self._scopes[request_class]
        return scopes

    @staticmethod
    def of_records(
        records: Iterable[RequestRecord], declared: Sequence[str] = ()
    ) -> "StreamingTrafficStats":
        """The exact accumulator: ``records`` folded, in the order given.

        Its distributions are :class:`ExactSamples`, so every mean sums in
        record order and every percentile is read off the retained samples.
        More records fold in with :func:`fold_records`.
        """
        stats = _ExactTrafficStats(declared)
        fold_records(records, (stats,))
        return stats

    def class_summaries(self) -> Tuple[ClassSummary, ...]:
        self._read()
        return tuple(
            self._classes[name].summary(name) for name in sorted(self._classes)
        )

    def summary(
        self,
        mode: str,
        pattern: str,
        duration_s: float,
        cold_starts: int = 0,
        cold_start_seconds: float = 0.0,
        replica_timeline: Sequence[Tuple[float, int]] = (),
        declared_classes: Sequence[str] = (),
        oom_evictions: int = 0,
        rss_mb_seconds: float = 0.0,
        cpu_seconds: float = 0.0,
    ) -> TrafficSummary:
        """The scope's :class:`TrafficSummary`, with the run-level aggregates."""
        if duration_s <= 0:
            raise SloError("duration must be positive")
        for name in declared_classes:  # zero-request classes still export rows
            self._class_stats(name)
        self._read()
        totals = self._totals
        return TrafficSummary(
            mode=mode,
            pattern=pattern,
            duration_s=duration_s,
            offered=self.offered,
            completed=totals.completed,
            timed_out=totals.timed_out,
            dropped=totals.dropped,
            shed=totals.shed,
            cached=totals.cached,
            coalesced=totals.coalesced,
            rate_limited=totals.rate_limited,
            rejected=totals.rejected,
            latency=totals.latency_served.summary(),
            queueing=self.stages.queueing.summary(),
            service=self.stages.service.summary(),
            cold_starts=cold_starts,
            cold_start_seconds=cold_start_seconds,
            replica_seconds=_replica_seconds(replica_timeline, duration_s),
            max_replicas=max((count for _, count in replica_timeline), default=0),
            replica_timeline=tuple(replica_timeline),
            classes=self.class_summaries(),
            oom_evictions=oom_evictions,
            rss_mb_seconds=rss_mb_seconds,
            cpu_seconds=cpu_seconds,
        )

    def waterfall(self, label: str) -> List[WaterfallRow]:
        """Per-class waterfall rows (completed requests only), plus ``(all)``.

        Only classes with completions get a row; with more than one row an
        ``(all)`` rollup row closes the group.
        """
        self._read()
        rows = [
            _row_from_stages(label, name, stats.completed, stats.stages)
            for name, stats in sorted(self._classes.items())
            if stats.completed
        ]
        if len(rows) > 1:
            rows.append(
                _row_from_stages(label, "(all)", self._totals.completed, self.stages)
            )
        return rows


class _ExactTrafficStats(StreamingTrafficStats):
    """The accumulator over :class:`ExactSamples` (see ``of_records``)."""

    _distribution = ExactSamples


class Rollups(tuple):
    """The sketch-mode rollups one tenant's finished requests fold into.

    A tuple of :class:`StreamingTrafficStats`, each object once: the
    finest first, the tenant's own (in its region), then the coarser ones
    it belongs to.  Building it makes the finest a member of each coarser
    one, which merges its members in when read.  :meth:`fold` is the whole
    per-request cost of sketch-mode accounting.
    """

    def __new__(cls, streams: Sequence[StreamingTrafficStats]) -> "Rollups":
        rollups = super().__new__(cls, streams)
        finest = rollups[0]
        if finest._members:
            raise SloError("a rollup with members cannot be a request's finest")
        #: The coarser rollups: each keeps only running sums per request.
        rollups.coarse = rollups[1:]
        for stream in rollups.coarse:
            if finest not in stream._members:
                stream._members.append(finest)
        return rollups

    def fold(
        self,
        outcome: RequestOutcome,
        arrival: float,
        dispatch: Optional[float],
        completion: Optional[float],
        cold_wait: float,
        request_class: str,
        deadline_s: Optional[float],
    ) -> None:
        """Fold one finished request, from its scalars, into every rollup.

        The stage durations mirror the record's property definitions float
        for float.  Each one's bucket is computed once and every histogram
        of the finest rollup is updated in place — count, sum, min, max and
        bucket, exactly as :meth:`~repro.obs.sketch.LogHistogram.add` would
        — in each scope: the rollup's totals and, when it is not the
        totals, the class.  In each scope of the coarser rollups only the
        running sums move (and a served sketch forks); the rest is merged
        at read.
        """
        stream = self[0]
        scopes = stream._scopes.get(request_class) or stream.scopes(request_class)
        if outcome is _COMPLETED:
            # Completed means dispatched and finished: both stamps exist.
            latency = float(completion - arrival)
            queueing = float(dispatch - arrival)
            service = float(completion - dispatch)
            cold_wait = float(cold_wait)
            latency_bucket = bucket_index(latency)
            service_bucket = bucket_index(service)
            # A request served on arrival waited for nothing: bucket 0,
            # which is bucket_index(0.0), without the call.
            queueing_bucket = bucket_index(queueing) if queueing else 0
            cold_bucket = bucket_index(cold_wait) if cold_wait else 0
            met = deadline_s is not None and completion <= deadline_s
            for scope in scopes:
                scope.offered += 1
                scope.completed += 1
                if deadline_s is not None:
                    scope.deadline_total += 1
                    if met:
                        scope.deadline_met += 1
                stages = scope.stages
                sketch = stages.latency
                sketch._count += 1
                sketch._sum += latency
                sketch._counts[latency_bucket] += 1
                if latency < sketch._min:
                    sketch._min = latency
                if latency > sketch._max:
                    sketch._max = latency
                served = scope.latency_served
                if served is not sketch:
                    served._count += 1
                    served._sum += latency
                    served._counts[latency_bucket] += 1
                    if latency < served._min:
                        served._min = latency
                    if latency > served._max:
                        served._max = latency
                sketch = stages.queueing
                sketch._count += 1
                sketch._sum += queueing
                sketch._counts[queueing_bucket] += 1
                if queueing < sketch._min:
                    sketch._min = queueing
                if queueing > sketch._max:
                    sketch._max = queueing
                sketch = stages.service
                sketch._count += 1
                sketch._sum += service
                sketch._counts[service_bucket] += 1
                if service < sketch._min:
                    sketch._min = service
                if service > sketch._max:
                    sketch._max = service
                sketch = stages.cold_wait
                sketch._count += 1
                sketch._sum += cold_wait
                sketch._counts[cold_bucket] += 1
                if cold_wait < sketch._min:
                    sketch._min = cold_wait
                if cold_wait > sketch._max:
                    sketch._max = cold_wait
            for stream in self.coarse:
                for scope in stream._scopes.get(request_class) or stream.scopes(request_class):
                    stages = scope.stages
                    sketch = stages.latency
                    sketch._sum += latency
                    served = scope.latency_served
                    if served is not sketch:
                        served._sum += latency
                    stages.queueing._sum += queueing
                    stages.service._sum += service
                    stages.cold_wait._sum += cold_wait
            return
        # Only completed requests reach the stage sketches; a cached or
        # coalesced one is served, so its latency forks the served sketch.
        counter = outcome.value
        served = outcome in SERVED_OUTCOMES
        if served:
            latency = float(completion - arrival)
            latency_bucket = bucket_index(latency)
        met = served and deadline_s is not None and completion <= deadline_s
        for scope in scopes:
            scope.offered += 1
            setattr(scope, counter, getattr(scope, counter) + 1)
            if deadline_s is not None:
                scope.deadline_total += 1
                if met:
                    scope.deadline_met += 1
            if served:
                sketch = scope.served_apart()
                sketch._count += 1
                sketch._sum += latency
                sketch._counts[latency_bucket] += 1
                if latency < sketch._min:
                    sketch._min = latency
                if latency > sketch._max:
                    sketch._max = latency
        for stream in self.coarse:
            # Resolved even when nothing is summed: the class must exist.
            scopes = stream._scopes.get(request_class) or stream.scopes(request_class)
            if served:
                for scope in scopes:
                    scope.served_apart()._sum += latency


def fold_records(
    records: Iterable[RequestRecord], streams: Sequence[StreamingTrafficStats]
) -> None:
    """Fold ``records``, in the order given, into every exact accumulator of ``streams``.

    Each record's stage durations are computed once, however many
    accumulators it feeds, and appended straight to each scope's arrays.
    """
    for record in records:
        outcome = record.outcome
        completion = record.completion_s
        request_class = record.request_class
        deadline_s = record.deadline_s
        completed = outcome is _COMPLETED
        served = outcome in SERVED_OUTCOMES
        counter = outcome.value
        if served:
            # A valid record has a completion time for every served outcome.
            arrival = record.arrival_s
            latency = float(completion - arrival)
            if completed:
                dispatch = record.dispatch_s
                queueing = float(dispatch - arrival)
                service = float(completion - dispatch)
                cold_wait = float(record.cold_start_wait_s)
        met = served and deadline_s is not None and completion <= deadline_s
        for stream in streams:
            for scope in stream.scopes(request_class):
                scope.offered += 1
                setattr(scope, counter, getattr(scope, counter) + 1)
                if deadline_s is not None:
                    scope.deadline_total += 1
                    if met:
                        scope.deadline_met += 1
                if completed:
                    stages = scope.stages
                    stages.latency.values.append(latency)
                    if scope.latency_served is not stages.latency:
                        scope.latency_served.values.append(latency)
                    stages.queueing.values.append(queueing)
                    stages.service.values.append(service)
                    stages.cold_wait.values.append(cold_wait)
                elif served:
                    scope.served_apart().values.append(latency)


def _queue_only(stages: StageSketches, cold: LatencySummary) -> Tuple[float, float]:
    """Mean/p95 of the pure-queue wait: queueing minus cold wait, floored at 0.

    Exact samples subtract per request (both stage arrays are in fold
    order).  Sketches can only subtract the aggregates, which is a
    serviceable estimate (cold waits are near-constant per runtime).
    """
    queueing, cold_wait = stages.queueing, stages.cold_wait
    if isinstance(queueing, ExactSamples):
        pure = LatencySummary.from_samples(
            array("d", (max(0.0, q - c) for q, c in zip(queueing.values, cold_wait.values)))
        )
        return pure.mean_s, pure.p95_s
    queue = queueing.summary()
    return max(0.0, queue.mean_s - cold.mean_s), max(0.0, queue.p95_s - cold.p95_s)


def _row_from_stages(
    label: str, request_class: str, completed: int, stages: StageSketches
) -> WaterfallRow:
    # A row exists only for completions, so no stage distribution is empty.
    cold = stages.cold_wait.summary()
    service = stages.service.summary()
    total = stages.latency.summary()
    queue_mean, queue_p95 = _queue_only(stages, cold)
    return WaterfallRow(
        label=label,
        request_class=request_class,
        completed=completed,
        queue_mean_s=queue_mean,
        queue_p95_s=queue_p95,
        cold_mean_s=cold.mean_s,
        cold_p95_s=cold.p95_s,
        service_mean_s=service.mean_s,
        service_p95_s=service.p95_s,
        total_mean_s=total.mean_s,
        total_p95_s=total.p95_s,
    )

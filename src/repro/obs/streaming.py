"""SLO accounting: the one rollup behind every summary and waterfall.

:class:`StreamingTrafficStats` folds each finished request (reduced once to
an :class:`Observation`) into outcome counters and one distribution per
stage, for the whole scope and per scheduling class.  ``summary()`` reads
off the :class:`~repro.traffic.slo.TrafficSummary` and ``waterfall()`` the
per-class stage rows the waterfall table renders.  The formulas exist only
here; the two modes differ only in the distribution object:

* **sketch mode** (``TrafficConfig(retain_records=False)``) folds every
  request at completion into :class:`~repro.obs.sketch.QuantileSketch`
  instances and forgets it — constant memory, sketch-estimated percentiles;
* **exact mode** keeps its records (the exports need them) and folds them
  at rollup time, in request-id order, through
  :meth:`StreamingTrafficStats.of_records` into :class:`ExactSamples`,
  which retain every sample packed — the exact means and percentiles.

Reports, exporters and figures are therefore agnostic to which mode fed them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.stats import LatencySummary, _interpolate
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


class Observation:
    """One finished request, reduced once for every stream it belongs to.

    The stage durations mirror the :class:`~repro.traffic.slo.RequestRecord`
    property definitions float for float, and each duration a sketch will
    receive carries its :func:`~repro.obs.sketch.bucket_index`, so folding
    the same request into a tenant, a cluster and a federation rollup costs
    one ``log`` per stage rather than one per stage per rollup.
    """

    __slots__ = (
        "outcome", "served", "request_class", "deadline_s", "deadline_met",
        "latency", "queueing", "service", "cold_wait",
        "latency_bucket", "queueing_bucket", "service_bucket", "cold_wait_bucket",
    )

    def __init__(self, record: RequestRecord) -> None:
        arrival = record.arrival_s
        dispatch = record.dispatch_s
        completion = record.completion_s
        outcome = record.outcome
        served = outcome in SERVED_OUTCOMES
        deadline_s = record.deadline_s
        self.outcome = outcome
        self.served = served
        self.request_class = record.request_class
        self.deadline_s = deadline_s
        self.deadline_met = (
            None if deadline_s is None else (served and completion <= deadline_s)
        )
        latency = 0.0 if completion is None else float(completion - arrival)
        self.latency = latency
        self.latency_bucket = bucket_index(latency) if served else 0
        if outcome is RequestOutcome.COMPLETED:
            # Completed means dispatched and finished: both stamps exist.
            queueing = float(dispatch - arrival)
            service = float(completion - dispatch)
            cold_wait = float(record.cold_start_wait_s)
            self.queueing_bucket = bucket_index(queueing)
            self.service_bucket = bucket_index(service)
            self.cold_wait_bucket = bucket_index(cold_wait)
        else:
            # Only completed requests reach the stage sketches.
            queueing = service = cold_wait = 0.0
            self.queueing_bucket = self.service_bucket = self.cold_wait_bucket = 0
        self.queueing = queueing
        self.service = service
        self.cold_wait = cold_wait


class ExactSamples:
    """An exact distribution: every sample, packed, in fold order.

    The exact-mode backend of :class:`StreamingTrafficStats`, with the part
    of the :class:`~repro.obs.sketch.QuantileSketch` surface the rollup
    uses.  The mean sums the samples in fold order and a quantile
    interpolates one sort, exactly as ``LatencySummary.from_samples`` does.
    """

    __slots__ = ("values",)

    def __init__(self, values: Optional[array] = None) -> None:
        self.values = array("d") if values is None else values

    def observe_at(self, value: float, bucket: int) -> None:
        """Keep ``value`` (an exact distribution needs no bucket)."""
        self.values.append(value)

    @property
    def mean(self) -> float:
        values = self.values
        return sum(values) / len(values) if values else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0.0 before any sample)."""
        return _interpolate(sorted(self.values), q * 100.0) if self.values else 0.0

    def summary(self) -> LatencySummary:
        values = self.values
        return LatencySummary.from_samples(values) if values else LatencySummary.empty()

    def clone(self) -> "ExactSamples":
        return ExactSamples(array("d", self.values))


@dataclass
class StageSketches:
    """The four stage distributions one scope (tenant or class) tracks."""

    latency: QuantileSketch
    queueing: QuantileSketch
    service: QuantileSketch
    cold_wait: QuantileSketch

    def fold(self, obs: Observation) -> None:
        """Fold one completed request's stage durations in."""
        self.latency.observe_at(obs.latency, obs.latency_bucket)
        self.queueing.observe_at(obs.queueing, obs.queueing_bucket)
        self.service.observe_at(obs.service, obs.service_bucket)
        self.cold_wait.observe_at(obs.cold_wait, obs.cold_wait_bucket)

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

    def fold(self, obs: Observation) -> None:
        """Count one outcome and fold its durations into the sketches."""
        self.offered += 1
        outcome = obs.outcome
        if outcome is RequestOutcome.COMPLETED:
            self.completed += 1
            self.stages.fold(obs)
        elif outcome is RequestOutcome.TIMED_OUT:
            self.timed_out += 1
        elif outcome is RequestOutcome.DROPPED:
            self.dropped += 1
        elif outcome is RequestOutcome.SHED:
            self.shed += 1
        elif outcome is RequestOutcome.CACHED:
            self.cached += 1
        elif outcome is RequestOutcome.COALESCED:
            self.coalesced += 1
        elif outcome is RequestOutcome.RATE_LIMITED:
            self.rate_limited += 1
        elif outcome is RequestOutcome.REJECTED:
            self.rejected += 1
        if obs.served:
            self.latency_served.observe_at(obs.latency, obs.latency_bucket)
        if obs.deadline_s is not None:
            self.deadline_total += 1
            if obs.deadline_met:
                self.deadline_met += 1

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
        return replace(
            self, stages=self.stages.clone(), latency_served=self.latency_served.clone()
        )

    @classmethod
    def over(cls, make: Callable[[], QuantileSketch]) -> "_ClassStats":
        """Zeroed counters over fresh ``make()`` distributions."""
        return cls(
            stages=StageSketches(make(), make(), make(), make()), latency_served=make()
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
        for name in declared_classes:
            self._class_stats(name)

    @property
    def offered(self) -> int:
        return self._totals.offered

    @property
    def stages(self) -> StageSketches:
        """The scope-wide stage sketches (completed requests only)."""
        return self._totals.stages

    def _class_stats(self, name: str) -> _ClassStats:
        """The per-class accumulator, creating it on first sight.

        While exactly one class exists it holds exactly the scope-wide
        contents, so the sole class *is* the totals object (and ``fold``
        updates it once).  The moment a second class appears, the sole
        class forks into an independent copy — identical content, tracked
        separately from then on.
        """
        per_class = self._classes.get(name)
        if per_class is None:
            if len(self._classes) == 1:
                (sole,) = self._classes
                if self._classes[sole] is self._totals:
                    self._classes[sole] = self._totals.clone()
            per_class = (
                _ClassStats.over(self._distribution) if self._classes else self._totals
            )
            self._classes[name] = per_class
        return per_class

    @staticmethod
    def of_records(
        records: Iterable[RequestRecord], declared: Sequence[str] = ()
    ) -> "StreamingTrafficStats":
        """The exact accumulator: ``records`` folded, in the order given.

        Its distributions are :class:`ExactSamples`, so every mean sums in
        record order and every percentile is read off the retained samples.
        """
        stats = _ExactTrafficStats(declared)
        for record in records:
            stats.fold(Observation(record))
        return stats

    def observe(self, record: RequestRecord) -> None:
        """Fold one finished request in; the record is not retained."""
        self.fold(Observation(record))

    def fold(self, obs: Observation) -> None:
        """Fold one reduced request in (the engine builds one per request)."""
        # Resolve the class first: a new class forks the sole class off the
        # totals, and that copy must not include this request yet.
        per_class = self._classes.get(obs.request_class)
        if per_class is None:
            per_class = self._class_stats(obs.request_class)
        totals = self._totals
        totals.fold(obs)
        if per_class is not totals:
            per_class.fold(obs)

    @property
    def completed(self) -> int:
        return self._totals.completed

    def class_summaries(self) -> Tuple[ClassSummary, ...]:
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


def _queue_only(stages: StageSketches, cold_p95: float) -> Tuple[float, float]:
    """Mean/p95 of the pure-queue wait: queueing minus cold wait, floored at 0.

    Exact samples subtract per request (both stage arrays are in fold
    order).  Sketches can only subtract the aggregates, which is a
    serviceable estimate (cold waits are near-constant per runtime).
    """
    queueing, cold_wait = stages.queueing, stages.cold_wait
    if isinstance(queueing, ExactSamples):
        pure = ExactSamples(
            array("d", (max(0.0, q - c) for q, c in zip(queueing.values, cold_wait.values)))
        )
        return pure.mean, pure.quantile(0.95)
    mean_q = max(0.0, queueing.mean - cold_wait.mean)
    p95_q = max(0.0, queueing.quantile(0.95) - cold_p95)
    return mean_q, p95_q


def _row_from_stages(
    label: str, request_class: str, completed: int, stages: StageSketches
) -> WaterfallRow:
    cold_p95 = stages.cold_wait.quantile(0.95)
    queue_mean, queue_p95 = _queue_only(stages, cold_p95)
    return WaterfallRow(
        label=label,
        request_class=request_class,
        completed=completed,
        queue_mean_s=queue_mean,
        queue_p95_s=queue_p95,
        cold_mean_s=stages.cold_wait.mean,
        cold_p95_s=cold_p95,
        service_mean_s=stages.service.mean,
        service_p95_s=stages.service.quantile(0.95),
        total_mean_s=stages.latency.mean,
        total_p95_s=stages.latency.quantile(0.95),
    )

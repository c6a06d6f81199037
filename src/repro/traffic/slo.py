"""SLO accounting: per-request records and the summary shapes they roll into.

The traffic engine emits one :class:`RequestRecord` per admitted request.
A :class:`TrafficSummary` is what an operator actually watches: p50/p95/p99
end-to-end latency, queueing delay separated from service time, timeout and
drop counts, and goodput (completed requests per second of simulated time —
dropped or timed-out requests produce no good output, however much CPU they
burned).

Requests carry a scheduling class (:mod:`repro.traffic.classes`), so the
rollup is also per class: each :class:`ClassSummary` tracks the class's
volume counters, its latency distribution and its deadline-met ratio — the
SLO attainment number deadline-aware scheduling (EDF at the gateway) is
supposed to move.  Classes a tenant declared but never exercised still get
a zero row, so exports always carry the full class list.

The records and the summary shapes live here; the rollup formulas live in
one place, :class:`repro.obs.streaming.StreamingTrafficStats`.
:func:`summarize` and :func:`summarize_classes` fold records into its exact
backend.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.metrics.stats import LatencySummary


class SloError(ValueError):
    """Raised for malformed request records."""


class RequestOutcome(enum.Enum):
    """How one request's life ended."""

    COMPLETED = "completed"
    TIMED_OUT = "timed_out"   # waited in the queue past the admission timeout
    DROPPED = "dropped"       # rejected at admission (queue full)
    SHED = "shed"             # hard deadline unmeetable at dispatch (admission control)
    CACHED = "cached"         # served from the gateway response cache, no backend work
    COALESCED = "coalesced"   # served by fan-out from an identical in-flight request
    RATE_LIMITED = "rate_limited"  # refused by the per-tenant token bucket
    REJECTED = "rejected"     # refused by auth / quota middleware

    # Identity hash, as for ``repro.sim.ledger.CostCategory``: members are
    # singletons, and every record is hashed into ``SERVED_OUTCOMES`` and
    # the rollups' outcome counts.
    __hash__ = object.__hash__


#: Outcomes where the client got a good response.  CACHED and COALESCED
#: requests never touched a replica (no dispatch, no service time) but are
#: every bit as served as a completed backend invocation.
SERVED_OUTCOMES = frozenset(
    {RequestOutcome.COMPLETED, RequestOutcome.CACHED, RequestOutcome.COALESCED}
)


@dataclass(frozen=True)
class RequestRecord:
    """The full timing of one request through the platform.

    ``dispatch_s`` and ``completion_s`` are ``None`` for requests that never
    reached a replica.  For completed requests::

        queueing delay = dispatch - arrival      (time waiting for a replica)
        service time   = completion - dispatch   (time executing the workflow)
        latency        = completion - arrival    (what the client observes)
    """

    request_id: int
    function: str
    outcome: RequestOutcome
    arrival_s: float
    dispatch_s: Optional[float] = None
    completion_s: Optional[float] = None
    replica: str = ""
    cold_start_wait_s: float = 0.0
    request_class: str = "standard"
    deadline_s: Optional[float] = None  # absolute soft deadline, if any

    def __post_init__(self) -> None:
        if self.outcome is RequestOutcome.COMPLETED:
            if self.dispatch_s is None or self.completion_s is None:
                raise SloError("completed requests need dispatch and completion times")
            if not self.arrival_s <= self.dispatch_s <= self.completion_s:
                raise SloError(
                    "request %d times must be ordered: arrival=%r dispatch=%r completion=%r"
                    % (self.request_id, self.arrival_s, self.dispatch_s, self.completion_s)
                )
        elif self.outcome in SERVED_OUTCOMES:
            # Cached / coalesced responses never reached a replica: no
            # dispatch, but they still completed at a definite instant.
            if self.completion_s is None:
                raise SloError(
                    "%s requests need a completion time" % self.outcome.value
                )
            if self.completion_s < self.arrival_s:
                raise SloError(
                    "request %d completed at %r before arriving at %r"
                    % (self.request_id, self.completion_s, self.arrival_s)
                )

    @property
    def served(self) -> bool:
        """Whether the client got a good response (completed/cached/coalesced)."""
        return self.outcome in SERVED_OUTCOMES

    @property
    def queueing_delay_s(self) -> float:
        if self.dispatch_s is None:
            return 0.0
        return self.dispatch_s - self.arrival_s

    @property
    def service_s(self) -> float:
        if self.dispatch_s is None or self.completion_s is None:
            return 0.0
        return self.completion_s - self.dispatch_s

    @property
    def latency_s(self) -> float:
        if self.completion_s is None:
            return 0.0
        return self.completion_s - self.arrival_s

    @property
    def deadline_met(self) -> Optional[bool]:
        """Whether the deadline was met (``None`` when the request had none).

        A dropped, timed-out or shed request with a deadline missed it by
        definition: it never produced output at all.
        """
        if self.deadline_s is None:
            return None
        return self.served and self.completion_s <= self.deadline_s


@dataclass(frozen=True)
class ClassSummary:
    """One scheduling class's slice of a tenant's (or the cluster's) run."""

    name: str
    offered: int
    completed: int
    timed_out: int
    dropped: int
    #: Requests of this class that carried a deadline / met it.
    deadline_total: int
    deadline_met: int
    latency: LatencySummary
    #: Hard-deadline requests shed by admission control at dispatch time.
    shed: int = 0
    #: Requests resolved by gateway middleware (zero unless a pipeline ran).
    cached: int = 0
    coalesced: int = 0
    rate_limited: int = 0
    rejected: int = 0

    @property
    def served(self) -> int:
        """Requests that got a good response (completed + cached + coalesced)."""
        return self.completed + self.cached + self.coalesced

    @property
    def deadline_missed(self) -> int:
        return self.deadline_total - self.deadline_met

    @property
    def deadline_met_ratio(self) -> float:
        """Fraction of deadline-carrying requests served in time (1.0 if none)."""
        if self.deadline_total == 0:
            return 1.0
        return self.deadline_met / self.deadline_total


def summarize_classes(
    records: Sequence["RequestRecord"],
    declared: Sequence[str] = (),
) -> Tuple[ClassSummary, ...]:
    """Roll records into per-class summaries, sorted by class name.

    ``declared`` lists class names that must appear even with zero
    requests, so a quiet class still exports (and round-trips) its row.
    """
    from repro.obs.streaming import StreamingTrafficStats

    return StreamingTrafficStats.of_records(records, declared).class_summaries()


@dataclass(frozen=True)
class TrafficSummary:
    """Everything one sustained-load run produced, per runtime mode."""

    mode: str
    pattern: str
    duration_s: float
    offered: int
    completed: int
    timed_out: int
    dropped: int
    latency: LatencySummary
    queueing: LatencySummary
    service: LatencySummary
    cold_starts: int
    cold_start_seconds: float
    replica_seconds: float
    max_replicas: int
    replica_timeline: Tuple[Tuple[float, int], ...]
    #: Per-scheduling-class rollup (sorted by class name).
    classes: Tuple[ClassSummary, ...] = ()
    #: Hard-deadline requests shed by admission control at dispatch time.
    shed: int = 0
    #: Requests resolved by gateway middleware (zero unless a pipeline ran).
    cached: int = 0
    coalesced: int = 0
    rate_limited: int = 0
    rejected: int = 0
    #: Replicas killed by the OOM evictor (zero unless a memory model ran).
    oom_evictions: int = 0
    #: Integral of replica RSS over residency (MB x seconds); zero without
    #: a memory model.
    rss_mb_seconds: float = 0.0
    #: Replica-busy seconds (hedged losers included: they burned CPU too).
    cpu_seconds: float = 0.0

    @property
    def served(self) -> int:
        """Requests that got a good response (completed + cached + coalesced)."""
        return self.completed + self.cached + self.coalesced

    @property
    def rss_mb_per_1k(self) -> float:
        """RSS MB-seconds consumed per 1000 served requests.

        The density headline: how much resident memory (integrated over
        replica residency) a unit of goodput costs under this mode.
        """
        if self.served == 0:
            return 0.0
        return self.rss_mb_seconds * 1000.0 / self.served

    @property
    def cpu_seconds_per_1k(self) -> float:
        """Replica-busy CPU seconds per 1000 served requests."""
        if self.served == 0:
            return 0.0
        return self.cpu_seconds * 1000.0 / self.served

    @property
    def deadline_total(self) -> int:
        return sum(cls.deadline_total for cls in self.classes)

    @property
    def deadline_met(self) -> int:
        return sum(cls.deadline_met for cls in self.classes)

    @property
    def deadline_met_ratio(self) -> float:
        """Fraction of deadline-carrying requests served in time (1.0 if none)."""
        total = self.deadline_total
        if total == 0:
            return 1.0
        return self.deadline_met / total

    @property
    def goodput_rps(self) -> float:
        """Served requests per second of simulated run time."""
        if self.duration_s <= 0:
            return 0.0
        return self.served / self.duration_s

    @property
    def failure_fraction(self) -> float:
        if self.offered == 0:
            return 0.0
        failed = (
            self.timed_out + self.dropped + self.shed
            + self.rate_limited + self.rejected
        )
        return failed / self.offered

    @property
    def mean_replicas(self) -> float:
        """Time-weighted average pool size over the run."""
        if self.duration_s <= 0:
            return 0.0
        return self.replica_seconds / self.duration_s


def summarize(
    mode: str,
    pattern: str,
    duration_s: float,
    records: Sequence[RequestRecord],
    cold_starts: int = 0,
    cold_start_seconds: float = 0.0,
    replica_timeline: Sequence[Tuple[float, int]] = (),
    declared_classes: Sequence[str] = (),
    oom_evictions: int = 0,
    rss_mb_seconds: float = 0.0,
    cpu_seconds: float = 0.0,
) -> TrafficSummary:
    """Roll per-request records into one :class:`TrafficSummary`.

    End-to-end latency covers everything the client saw served (cache
    hits and coalesced responses included); queueing and service remain
    backend-only — middleware-resolved requests never held a replica.
    """
    from repro.obs.streaming import StreamingTrafficStats

    return StreamingTrafficStats.of_records(records, declared_classes).summary(
        mode, pattern, duration_s, cold_starts, cold_start_seconds, replica_timeline,
        declared_classes, oom_evictions, rss_mb_seconds, cpu_seconds,
    )


def _replica_seconds(timeline: Sequence[Tuple[float, int]], duration_s: float) -> float:
    """Integrate a step function of (time, pool size) samples over the run."""
    if not timeline:
        return 0.0
    total = 0.0
    for (start, count), (end, _) in zip(timeline, timeline[1:]):
        total += count * max(0.0, min(end, duration_s) - start)
    last_time, last_count = timeline[-1]
    total += last_count * max(0.0, duration_s - last_time)
    return total

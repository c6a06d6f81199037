"""Request-lifecycle spans: where each request's latency actually went.

A :class:`RequestTrace` is the telemetry view of one request's trip through
the platform: admitted at the gateway, waiting in the fair queue, (maybe)
watching its replica cold-start, executing, and ending in one of the four
outcomes.  It decomposes the client-observed latency into the stage
durations operators reason about::

    queue_s       time waiting for a free replica (cold-start wait excluded)
    cold_start_s  the part of the wait spent watching the replica warm up
    service_s     time executing the workflow on the replica

which sum (for completed requests) to the end-to-end latency.  Traces render
as nested slices in the Perfetto timeline export
(:func:`repro.metrics.timeline.request_trace_events`) and roll up into the
per-tenant/per-class latency-waterfall table
(:func:`repro.traffic.report.render_waterfall_table`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Tuple

from repro.record import TypedRecord
from repro.traffic.slo import SERVED_OUTCOMES, RequestOutcome, RequestRecord


class SpanError(ValueError):
    """Raised for malformed traces."""


#: Stage names in lifecycle order (the nested-slice rendering order).
STAGES = ("queue", "cold_start", "service")


class _TraceFields(NamedTuple):
    """The fields of :class:`RequestTrace`, which adds validation."""

    tenant: str
    request_id: int
    request_class: str
    outcome: str  # a RequestOutcome value
    arrival_s: float
    end_s: float  # completion, timeout expiry, or arrival for drops/sheds
    dispatch_s: Optional[float] = None
    cold_start_s: float = 0.0
    node: str = ""
    replica: str = ""


class RequestTrace(TypedRecord, _TraceFields):
    """One request's lifecycle, decomposed into stages.

    An immutable, validated tuple record, like
    :class:`~repro.traffic.slo.RequestRecord`.
    """

    __slots__ = ()

    def __new__(
        cls,
        tenant: str,
        request_id: int,
        request_class: str,
        outcome: str,
        arrival_s: float,
        end_s: float,
        dispatch_s: Optional[float] = None,
        cold_start_s: float = 0.0,
        node: str = "",
        replica: str = "",
    ) -> "RequestTrace":
        if end_s < arrival_s:
            raise SpanError(
                "request %d ends (%r) before it arrives (%r)" % (request_id, end_s, arrival_s)
            )
        return tuple.__new__(
            cls,
            (
                tenant, request_id, request_class, outcome, arrival_s, end_s,
                dispatch_s, cold_start_s, node, replica,
            ),
        )

    @property
    def completed(self) -> bool:
        return self.outcome == RequestOutcome.COMPLETED.value

    @property
    def queue_s(self) -> float:
        """Pure queueing: the wait minus any overlapped cold start."""
        if self.dispatch_s is None:
            return self.end_s - self.arrival_s
        return max(0.0, self.dispatch_s - self.arrival_s - self.cold_start_s)

    @property
    def service_s(self) -> float:
        if self.dispatch_s is None:
            return 0.0
        return self.end_s - self.dispatch_s

    @property
    def total_s(self) -> float:
        return self.end_s - self.arrival_s

    def stages(self) -> List[Tuple[str, float, float]]:
        """(stage, start, duration) slices in lifecycle order.

        Never-dispatched requests carry a single ``queue`` slice covering
        their whole (fruitless) wait; zero-duration stages are kept, so a
        request dispatched on arrival still shows its empty queue slice.
        """
        if self.dispatch_s is None:
            return [("queue", self.arrival_s, self.end_s - self.arrival_s)]
        return [
            ("queue", self.arrival_s, self.queue_s),
            ("cold_start", self.dispatch_s - self.cold_start_s, self.cold_start_s),
            ("service", self.dispatch_s, self.service_s),
        ]

    @classmethod
    def from_record(
        cls, tenant: str, record: RequestRecord, node: str = ""
    ) -> "RequestTrace":
        """Derive the trace from an SLO record (the engine's completion view).

        A served request ends at its completion (cached and coalesced ones
        complete without a dispatch); any other ends where it arrived, since
        a timeout's expiry offset is the engine's, not the record's.
        """
        arrival = record.arrival_s
        return cls(
            tenant,
            record.request_id,
            record.request_class,
            record.outcome.value,
            arrival,
            record.completion_s if record.outcome in SERVED_OUTCOMES else arrival,
            record.dispatch_s,
            record.cold_start_wait_s,
            node,
            record.replica,
        )


class TraceLog:
    """The request traces of a run, in record order (opt-in: only built for export)."""

    def __init__(self) -> None:
        self._traces: List[RequestTrace] = []

    def record(self, trace: RequestTrace) -> None:
        self._traces.append(trace)

    @property
    def traces(self) -> Tuple[RequestTrace, ...]:
        return tuple(self._traces)

    def __iter__(self) -> Iterator[RequestTrace]:
        return iter(self._traces)

    def __len__(self) -> int:
        return len(self._traces)


# -- the latency waterfall -----------------------------------------------------------


@dataclass(frozen=True)
class WaterfallRow:
    """Stage-duration rollup for one (tenant, class) slice of a run."""

    label: str
    request_class: str
    completed: int
    queue_mean_s: float
    queue_p95_s: float
    cold_mean_s: float
    cold_p95_s: float
    service_mean_s: float
    service_p95_s: float
    total_mean_s: float
    total_p95_s: float

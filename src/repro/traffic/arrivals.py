"""Arrival processes: deterministic timestamped invocation streams.

The paper evaluates isolated transfers; a platform serving "heavy traffic
from millions of users" sees *streams* of requests whose inter-arrival
structure determines queueing, contention and the autoscaler's behaviour.
This module generates those streams:

* :class:`PoissonArrivals` — memoryless steady-state traffic at a fixed rate;
* :class:`BurstyArrivals` — on/off traffic (a burst of Poisson arrivals, then
  silence), the pattern that punishes slow cold starts hardest;
* :class:`DiurnalArrivals` — a sinusoidally modulated rate (daily peak and
  trough), generated by thinning, the pattern autoscalers must track;
* :class:`TraceArrivals` — replay of an explicit
  :class:`~repro.workloads.traces.InvocationTrace`;
* :func:`load_azure_trace` — the public Azure Functions invocations-per-
  minute CSV format mapped onto :class:`TraceArrivals`, so real FaaS
  workload shapes replay through the same engine as the synthetic ones;
* :func:`schedule_arrivals` — feeds every tenant's stream into a run's
  event loop as one lazily merged, ordered stream.

All generators are seeded and produce identical streams for identical
parameters, so two runtimes can be compared under *the same* arrivals — the
new scenario axis (load level x arrival pattern x runtime) the paper never
swept.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.workloads.traces import Invocation, InvocationTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import EventLoop
    from repro.traffic.cluster_runtime import _TenantState

MB = 1024 * 1024


class ArrivalError(ValueError):
    """Raised for invalid arrival-process parameters."""


#: Bound on a pattern's expected offered load, ``rate_rps * duration_s``.
#: Every arrival is generated up front, so a stream past it would exhaust
#: memory or run for hours before the first event; it is far above any run
#: the CLI, the examples or the benchmark make.
MAX_OFFERED_REQUESTS = 10 ** 8


@dataclass(frozen=True)
class Request:
    """One client request: when it arrives and what it asks for.

    ``request_class``/``priority``/``deadline_s`` carry the request's
    scheduling class (see :mod:`repro.traffic.classes`): the priority tier
    and absolute deadline order intra-tenant dispatch under EDF, and the
    class name keys per-class SLO accounting.  Deadlines are soft — a late
    request still completes, it just counts as a miss — unless ``hard`` is
    set, in which case the gateway sheds the request at dispatch time once
    the deadline can no longer be met.
    """

    request_id: int
    arrival_s: float
    function: str
    payload_bytes: int
    request_class: str = "standard"
    priority: int = 0
    deadline_s: Optional[float] = None  # absolute (simulated-clock) deadline
    hard: bool = False  # shed instead of serving late (admission control)

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ArrivalError("arrival time must be non-negative")
        if self.payload_bytes <= 0:
            raise ArrivalError("payload size must be positive")
        if self.deadline_s is not None and self.deadline_s <= self.arrival_s:
            raise ArrivalError("deadline must fall after the arrival time")


def _payload_bytes(payload_mb: float) -> int:
    """``payload_mb`` in whole bytes; a size too large to count is refused.

    How large a payload a run can carry depends on its runtime mode: see
    :func:`repro.traffic.cluster_runtime.max_payload_bytes`.
    """
    size = payload_mb * MB
    if size == math.inf:
        raise ArrivalError("payload_mb %g is too large to count in bytes" % payload_mb)
    return int(size)


class ArrivalProcess(ABC):
    """A generator of time-ordered request streams against one function."""

    name: str = "abstract"

    def __init__(self, function: str = "app", payload_mb: float = 1.0) -> None:
        if payload_mb <= 0:
            raise ArrivalError("payload_mb must be positive")
        self.function = function
        self.payload_bytes = _payload_bytes(payload_mb)

    @abstractmethod
    def arrival_times(self) -> List[float]:
        """The raw arrival instants in seconds, non-decreasing."""

    def generate(self) -> List[Request]:
        """Materialize the stream as :class:`Request` objects."""
        times = self.arrival_times()
        if any(b < a for a, b in zip(times, times[1:])):
            raise ArrivalError("arrival times must be non-decreasing")
        return [
            Request(
                request_id=index,
                arrival_s=instant,
                function=self.function,
                payload_bytes=self.payload_bytes,
            )
            for index, instant in enumerate(times)
        ]


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate_rps`` for ``duration_s`` seconds."""

    name = "poisson"

    def __init__(
        self,
        rate_rps: float,
        duration_s: float,
        function: str = "app",
        payload_mb: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(function=function, payload_mb=payload_mb)
        if rate_rps <= 0 or duration_s <= 0:
            raise ArrivalError("rate and duration must be positive")
        self.rate_rps = rate_rps
        self.duration_s = duration_s
        self.seed = seed

    def arrival_times(self) -> List[float]:
        rng = random.Random(self.seed)
        now, times = 0.0, []
        while True:
            now += rng.expovariate(self.rate_rps)
            if now > self.duration_s:
                break
            times.append(now)
        return times


class BurstyArrivals(ArrivalProcess):
    """On/off traffic: ``on_s`` seconds of Poisson arrivals, ``off_s`` silent."""

    name = "bursty"

    def __init__(
        self,
        on_rate_rps: float,
        duration_s: float,
        on_s: float = 5.0,
        off_s: float = 15.0,
        function: str = "app",
        payload_mb: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(function=function, payload_mb=payload_mb)
        if on_rate_rps <= 0 or duration_s <= 0:
            raise ArrivalError("rate and duration must be positive")
        if on_s <= 0 or off_s < 0:
            raise ArrivalError("on_s must be positive and off_s non-negative")
        self.on_rate_rps = on_rate_rps
        self.duration_s = duration_s
        self.on_s = on_s
        self.off_s = off_s
        self.seed = seed

    def arrival_times(self) -> List[float]:
        rng = random.Random(self.seed)
        times: List[float] = []
        window_start = 0.0
        while window_start < self.duration_s:
            now = window_start
            while True:
                now += rng.expovariate(self.on_rate_rps)
                if now > min(window_start + self.on_s, self.duration_s):
                    break
                times.append(now)
            window_start += self.on_s + self.off_s
        return times


class DiurnalArrivals(ArrivalProcess):
    """A sinusoidal daily cycle, generated by thinning a Poisson process.

    The instantaneous rate swings between ``trough_rps`` and ``peak_rps``
    over ``period_s`` (one simulated "day"), starting at the trough.
    ``phase_s`` shifts the whole cycle earlier in time — a region whose
    local "day" starts a third of a period ahead models a time zone to the
    east, which is how follow-the-sun federations stagger their peaks.
    Thinning draws candidates at the peak rate and keeps each with
    probability rate(t)/peak — the standard exact method for inhomogeneous
    Poisson processes.
    """

    name = "diurnal"

    def __init__(
        self,
        peak_rps: float,
        trough_rps: float,
        duration_s: float,
        period_s: float = 60.0,
        function: str = "app",
        payload_mb: float = 1.0,
        seed: int = 0,
        phase_s: float = 0.0,
    ) -> None:
        super().__init__(function=function, payload_mb=payload_mb)
        if peak_rps <= 0 or duration_s <= 0 or period_s <= 0:
            raise ArrivalError("rates, duration and period must be positive")
        if not 0 < trough_rps <= peak_rps:
            raise ArrivalError("need 0 < trough_rps <= peak_rps")
        if not math.isfinite(phase_s):
            raise ArrivalError("phase_s must be finite")
        self.peak_rps = peak_rps
        self.trough_rps = trough_rps
        self.duration_s = duration_s
        self.period_s = period_s
        self.seed = seed
        self.phase_s = phase_s

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t``."""
        midpoint = (self.peak_rps + self.trough_rps) / 2.0
        amplitude = (self.peak_rps - self.trough_rps) / 2.0
        phase = 2.0 * math.pi * (t + self.phase_s) / self.period_s
        return midpoint - amplitude * math.cos(phase)

    def arrival_times(self) -> List[float]:
        rng = random.Random(self.seed)
        now, times = 0.0, []
        while True:
            now += rng.expovariate(self.peak_rps)
            if now > self.duration_s:
                break
            if rng.random() <= self.rate_at(now) / self.peak_rps:
                times.append(now)
        return times


#: The synthetic patterns :func:`make_arrivals` builds by name.
ARRIVAL_PATTERNS = ("poisson", "bursty", "diurnal")


def make_arrivals(
    pattern: str,
    rate_rps: float,
    duration_s: float,
    on_s: float = 5.0,
    off_s: float = 15.0,
    period_s: float = 60.0,
    trough_rps: Optional[float] = None,
    function: str = "app",
    payload_mb: float = 1.0,
    seed: int = 0,
) -> ArrivalProcess:
    """The arrival process a pattern name denotes.

    ``rate_rps`` is the Poisson rate, the bursty on-window rate or the
    diurnal peak.  ``on_s``/``off_s`` shape bursty windows, ``period_s``
    and ``trough_rps`` the diurnal cycle; the trough defaults to a tenth of
    the peak, at least 0.1 rps and at most the peak.  A pattern whose
    ``rate_rps * duration_s`` exceeds :data:`MAX_OFFERED_REQUESTS` raises
    :class:`ArrivalError`.
    """
    if rate_rps * duration_s > MAX_OFFERED_REQUESTS:
        raise ArrivalError(
            "rate_rps * duration_s = %g * %g exceeds the offered-load bound of %d requests"
            % (rate_rps, duration_s, MAX_OFFERED_REQUESTS)
        )
    common = dict(duration_s=duration_s, function=function, payload_mb=payload_mb, seed=seed)
    if pattern == "poisson":
        return PoissonArrivals(rate_rps=rate_rps, **common)
    if pattern == "bursty":
        return BurstyArrivals(on_rate_rps=rate_rps, on_s=on_s, off_s=off_s, **common)
    if pattern == "diurnal":
        if trough_rps is None:
            trough_rps = min(rate_rps, max(rate_rps / 10.0, 0.1))
        return DiurnalArrivals(
            peak_rps=rate_rps, trough_rps=trough_rps, period_s=period_s, **common
        )
    raise ArrivalError("unknown pattern %r (use poisson, bursty or diurnal)" % pattern)


class TraceArrivals(ArrivalProcess):
    """Replay an :class:`~repro.workloads.traces.InvocationTrace` verbatim."""

    name = "trace"

    def __init__(self, trace: InvocationTrace, function: str = "app") -> None:
        super().__init__(function=function, payload_mb=1.0)
        self.trace = trace

    def arrival_times(self) -> List[float]:
        return [invocation.arrival_s for invocation in self.trace.invocations]

    def generate(self) -> List[Request]:
        return [
            Request(
                request_id=index,
                arrival_s=invocation.arrival_s,
                function=self.function,
                payload_bytes=invocation.payload_bytes,
            )
            for index, invocation in enumerate(self.trace.invocations)
        ]


#: Metadata columns of the Azure Functions invocations-per-minute CSV; every
#: remaining column is a minute index ("1".."1440") holding an invocation count.
_AZURE_META_COLUMNS = ("HashOwner", "HashApp", "HashFunction", "Trigger")


def load_azure_trace(
    path: str, payload_mb: float = 1.0, max_minutes: Optional[int] = None
) -> TraceArrivals:
    """Load an Azure Functions invocations-per-minute CSV as arrivals.

    The public Azure Functions traces (Shahrad et al., "Serverless in the
    Wild") ship one row per function: hashed owner/app/function ids, the
    trigger type, then 1440 columns of per-minute invocation counts.  This
    loader sums the counts per minute across all rows, as the invocations
    of one function ``app``, and spreads each minute's ``n`` invocations
    evenly over that minute, which is the
    deterministic, parameter-free way to recover sub-minute timestamps the
    format does not carry.  ``max_minutes`` truncates long traces so a
    day-long file can drive a short run.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
    except OSError as exc:
        raise ArrivalError("cannot read Azure trace %r: %s" % (path, exc))
    if not rows:
        raise ArrivalError("Azure trace %r has no data rows" % path)
    missing = [col for col in _AZURE_META_COLUMNS if col not in rows[0]]
    if missing:
        raise ArrivalError(
            "Azure trace %r is missing metadata columns: %s (expected the "
            "invocations-per-minute format)" % (path, ", ".join(missing))
        )
    # Minute columns are the numeric headers; anything else (extra metadata
    # columns, the empty header a trailing comma leaves, DictReader's None
    # restkey) is ignored rather than crashing the parse.
    minute_columns = sorted(
        int(column)
        for column in rows[0]
        if column not in _AZURE_META_COLUMNS
        and isinstance(column, str)
        and column.strip().isdigit()
    )
    if not minute_columns:
        raise ArrivalError("Azure trace %r carries no per-minute columns" % path)
    if max_minutes is not None:
        if max_minutes < 1:
            raise ArrivalError("max_minutes must be >= 1")
        minute_columns = minute_columns[:max_minutes]
    payload_bytes = _payload_bytes(payload_mb)
    if payload_bytes <= 0:
        raise ArrivalError("payload_mb must be positive")
    invocations: List[Invocation] = []
    for minute in minute_columns:
        count = 0
        for row in rows:
            cell = (row.get(str(minute)) or "").strip()
            if cell:
                try:
                    count += int(cell)
                except ValueError as exc:
                    raise ArrivalError(
                        "Azure trace %r: minute %d has a non-integer count %r: %s"
                        % (path, minute, cell, exc)
                    )
        start = (minute - 1) * 60.0
        for index in range(count):
            invocations.append(
                Invocation(
                    arrival_s=start + index * (60.0 / count),
                    payload_bytes=payload_bytes,
                )
            )
    if not invocations:
        raise ArrivalError("Azure trace %r contains zero invocations" % path)
    trace = InvocationTrace(name="azure", invocations=tuple(invocations))
    return TraceArrivals(trace, function="app")


_ARRIVAL_S = attrgetter("arrival_s")


def _ordered_requests(requests: Sequence[Request]) -> Sequence[Request]:
    """The stream in canonical (arrival, id) order, without a needless copy.

    Generators emit arrivals in order, so an already-ordered stream (the
    common case) passes through untouched; explicit request lists may
    arrive unordered and are sorted.
    """
    if all(
        (left.arrival_s, left.request_id) <= (right.arrival_s, right.request_id)
        for left, right in zip(requests, requests[1:])
    ):
        return requests
    return sorted(requests, key=lambda r: (r.arrival_s, r.request_id))


def schedule_arrivals(
    loop: EventLoop,
    states: Sequence[_TenantState],
    admit: Callable[[_TenantState, Request], None],
    total_requests: int,
) -> None:
    """Feed every tenant's arrivals to ``loop`` as one lazy stream of ``admit`` events.

    Arrivals are *not* pre-scheduled: a million heap entries up front
    would dominate the run's memory and heap-sift work.  Instead the
    per-tenant streams — each already in (arrival_s, request_id) order —
    are lazily merged (a lone tenant's stream is iterated as it is), one
    order slot per arrival is reserved so tie-breaking matches the old
    pre-scheduled order exactly, and the merged stream is fed to the loop
    (:meth:`~repro.sim.engine.EventLoop.feed`), which pulls each arrival
    as the run reaches it and never pushes one onto its heap.
    """
    base = loop.reserve_orders(total_requests)
    if len(states) == 1:
        (state,) = states
        requests = _ordered_requests(state.requests)
        loop.feed(
            zip(
                map(_ARRIVAL_S, requests),
                itertools.count(base),
                itertools.repeat(admit),
                zip(itertools.repeat(state), requests),
            )
        )
        return
    # ``heapq.merge`` with already-sorted streams reproduces the old
    # ``sorted(all_entries, key=(arrival_s, tenant index, request_id))``
    # order: the merge only compares the heads of different tenants, whose
    # (arrival_s, index) keys never tie, and keeps each tenant's own order.
    def tenant_stream(
        index: int, state: _TenantState
    ) -> "Iterator[Tuple[float, int, Tuple[_TenantState, Request]]]":
        requests = _ordered_requests(state.requests)
        return zip(
            map(_ARRIVAL_S, requests),
            itertools.repeat(index),
            zip(itertools.repeat(state), requests),
        )

    merged = heapq.merge(*(tenant_stream(index, state) for index, state in enumerate(states)))

    def entries() -> Iterator[Tuple[float, int, Callable[..., None], Tuple]]:
        order = base
        for arrival_s, _, args in merged:
            yield (arrival_s, order, admit, args)
            order += 1

    loop.feed(entries())

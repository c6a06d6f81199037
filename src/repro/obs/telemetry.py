"""The telemetry facade the traffic engine talks to.

One :class:`Telemetry` object bundles the run's observability surfaces — a
:class:`~repro.obs.registry.MetricsRegistry`, an optional
:class:`~repro.obs.spans.TraceLog`, an optional
:class:`~repro.obs.exporters.JsonlEventWriter` and an optional
:class:`~repro.obs.progress.ProgressReporter` — behind a handful of hooks
the engine calls at its natural state transitions (request finished, pool
scaled, control tick, run boundaries).  The engine never branches on which
sinks exist; the facade fans each hook out to whichever are attached.

Everything here is an observer: hooks never schedule events, mutate engine
state, or raise on a quiet run, so attaching a full telemetry stack to a
seeded simulation cannot change its results.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.obs.exporters import JsonlEventWriter
from repro.obs.progress import ProgressReporter
from repro.obs.registry import Counter, MetricsRegistry, Summary
from repro.obs.spans import STAGES, RequestTrace, TraceLog
from repro.traffic.autoscaler import LoadSample
from repro.traffic.slo import SERVED_OUTCOMES, RequestOutcome, RequestRecord

#: One (tenant, outcome)'s children: the request counter, the latency
#: summary (served outcomes) and the queue/cold-start/service summaries
#: (completed requests).
_RequestChildren = Tuple[
    Counter, Optional[Summary], Optional[Tuple[Summary, Summary, Summary]]
]


class Telemetry:
    """Fan-out from engine lifecycle hooks to the attached telemetry sinks."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        trace_log: Optional[TraceLog] = None,
        events: Optional[JsonlEventWriter] = None,
        progress: Optional[ProgressReporter] = None,
        region: str = "",
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace_log = trace_log
        self.events = events
        self.progress = progress
        #: Region this telemetry stack observes (federated runs attach one
        #: stack per region).  Empty keeps every metric family's label set —
        #: and every JSONL event's shape — byte-identical to the
        #: pre-federation exposition.
        self.region = region
        self._region_labels = ("region",) if region else ()
        reg = self.registry
        self._requests = reg.counter(
            "repro_requests_total",
            help="Requests finished, by tenant and outcome.",
            labels=self._region_labels + ("tenant", "outcome"),
        )
        self._latency = reg.summary(
            "repro_request_latency_seconds",
            help="End-to-end latency of completed requests.",
            labels=self._region_labels + ("tenant",),
        )
        self._stages = reg.summary(
            "repro_request_stage_seconds",
            help="Per-stage durations (queue, cold_start, service) of completed requests.",
            labels=self._region_labels + ("tenant", "stage"),
        )
        self._replicas = reg.gauge(
            "repro_replicas",
            help="Current replica pool size.",
            labels=self._region_labels + ("tenant",),
        )
        self._queue_depth = reg.gauge(
            "repro_queue_depth",
            help="Queued requests at the last control tick.",
            labels=self._region_labels + ("tenant",),
        )
        self._arrival_rate = reg.gauge(
            "repro_arrival_rate_rps",
            help="Arrival rate observed over the last control interval.",
            labels=self._region_labels + ("tenant",),
        )
        self._forecast = reg.gauge(
            "repro_forecast_rps",
            help="Predictive policy's arrival-rate forecast (predictive policies only).",
            labels=self._region_labels + ("tenant",),
        )
        self._forecast_error = reg.summary(
            "repro_forecast_error_rps",
            help="Absolute error between the forecast and the observed rate.",
            labels=self._region_labels + ("tenant",),
        )
        self._cold_starts = reg.counter(
            "repro_cold_starts_total",
            help="Replica cold starts paid.",
            labels=self._region_labels + ("tenant",),
        )
        self._cold_seconds = reg.counter(
            "repro_cold_start_seconds_total",
            help="Simulated seconds spent cold-starting replicas.",
            labels=self._region_labels + ("tenant",),
        )
        self._scaling = reg.counter(
            "repro_scaling_actions_total",
            help="Autoscaler pool changes, by direction.",
            labels=self._region_labels + ("tenant", "direction"),
        )
        self._request_children: Dict[Tuple[str, RequestOutcome], _RequestChildren] = {}

    def _labelled(self, family, **labels):
        """The family's child for ``labels``, region-qualified when set."""
        if self.region:
            labels["region"] = self.region
        return family.labels(**labels)

    def _emit(self, payload: Dict[str, object]) -> None:
        """Write one JSONL event, region-stamped when a region is set."""
        if self.region:
            payload = dict(payload)
            payload["region"] = self.region
        self.events.emit(payload)

    # -- run boundaries ---------------------------------------------------------------

    def on_run_start(self, total_requests: int, duration_hint_s: float = 0.0) -> None:
        if self.progress is not None:
            self.progress.total_requests = total_requests
            if duration_hint_s > 0:
                self.progress.duration_s = duration_hint_s
            self.progress.start()
        if self.events is not None:
            self._emit({"event": "run_start", "total_requests": total_requests})

    def on_run_end(self, sim_now_s: float, finished: int, replicas: int) -> None:
        if self.progress is not None:
            self.progress.finish(sim_now_s, finished, replicas)
        if self.events is not None:
            payload: Dict[str, object] = {
                "event": "run_end",
                "sim_s": round(sim_now_s, 9),
                "finished": finished,
                "replicas": replicas,
            }
            if self.trace_log is not None and self.trace_log.dropped:
                payload["traces_dropped"] = self.trace_log.dropped
            self._emit(payload)

    # -- per-request ------------------------------------------------------------------

    def _children_for(self, tenant: str, outcome: RequestOutcome) -> _RequestChildren:
        """Resolve (once) every child a ``(tenant, outcome)`` request updates.

        They are resolved in the order a request with that outcome first
        touches them, so each family's children keep their creation order.
        """
        counter = self._labelled(self._requests, tenant=tenant, outcome=outcome.value)
        latency = stages = None
        if outcome in SERVED_OUTCOMES:
            latency = self._labelled(self._latency, tenant=tenant)
        if outcome is RequestOutcome.COMPLETED:
            stages = tuple(
                self._labelled(self._stages, tenant=tenant, stage=stage)
                for stage in STAGES
            )
        children = (counter, latency, stages)
        self._request_children[(tenant, outcome)] = children
        return children

    def on_request(self, tenant: str, record: RequestRecord, node: str = "") -> None:
        """One request reached a terminal outcome; fan it out everywhere."""
        outcome = record.outcome
        children = self._request_children.get((tenant, outcome))
        if children is None:
            children = self._children_for(tenant, outcome)
        counter, latency, stages = children
        counter.inc()
        trace = RequestTrace.from_record(tenant, record, node=node)
        if latency is not None:
            # Cached/coalesced responses count toward client-observed latency
            # even though they never produced backend stage durations.
            latency.observe(record.latency_s)
        if stages is not None:
            durations = (trace.queue_s, trace.cold_start_s, trace.service_s)
            for summary, duration in zip(stages, durations):
                summary.observe(duration)
        if self.trace_log is not None:
            self.trace_log.record(trace)
        if self.events is not None:
            event: Dict[str, object] = {
                "event": "request",
                "tenant": tenant,
                "id": record.request_id,
                "class": record.request_class,
                "outcome": outcome.value,
                "arrival_s": round(record.arrival_s, 9),
            }
            if latency is not None:
                event["latency_s"] = round(record.latency_s, 9)
            if stages is not None:
                event["queue_s"] = round(durations[0], 9)
                event["cold_start_s"] = round(durations[1], 9)
                event["service_s"] = round(durations[2], 9)
                event["replica"] = record.replica
                if node:
                    event["node"] = node
            if self.region:
                event["region"] = self.region
            self.events.emit(event)

    def on_progress(self, sim_now_s: float, finished: int, replicas: int) -> None:
        if self.progress is not None:
            self.progress.update(sim_now_s, finished, replicas)

    # -- control loop -----------------------------------------------------------------

    def on_scale(
        self,
        tenant: str,
        delta: int,
        replicas: int,
        now_s: float,
        cold_starts: int = 0,
        cold_seconds: float = 0.0,
    ) -> None:
        """The pool changed size by ``delta`` (positive = scale-up)."""
        if delta == 0:
            return
        direction = "up" if delta > 0 else "down"
        self._labelled(self._scaling, tenant=tenant, direction=direction).inc(
            abs(delta)
        )
        self._labelled(self._replicas, tenant=tenant).set(replicas)
        if cold_starts:
            self._labelled(self._cold_starts, tenant=tenant).inc(cold_starts)
            self._labelled(self._cold_seconds, tenant=tenant).inc(cold_seconds)
        if self.events is not None:
            self._emit(
                {
                    "event": "scale",
                    "tenant": tenant,
                    "sim_s": round(now_s, 9),
                    "delta": delta,
                    "replicas": replicas,
                    "cold_seconds": round(cold_seconds, 9),
                }
            )

    def on_oom_evict(self, tenant: str, node: str, replica: str, now_s: float) -> None:
        """The OOM evictor killed one idle replica on an over-budget node.

        The counter family is created on first eviction (like the
        middleware counters), so runs without a memory model keep their
        exposition byte-identical.
        """
        family = self.registry.counter(
            "repro_oom_evictions_total",
            help="Replicas killed by the OOM evictor, by tenant and node.",
            labels=self._region_labels + ("tenant", "node"),
        )
        self._labelled(family, tenant=tenant, node=node).inc()
        if self.events is not None:
            self._emit(
                {
                    "event": "oom_evict",
                    "tenant": tenant,
                    "node": node,
                    "replica": replica,
                    "sim_s": round(now_s, 9),
                }
            )

    def on_tick(
        self, tenant: str, sample: LoadSample, forecast_rps: Optional[float] = None
    ) -> None:
        """One autoscaler control tick's load view."""
        self._labelled(self._replicas, tenant=tenant).set(sample.replicas)
        self._labelled(self._queue_depth, tenant=tenant).set(sample.queued)
        self._labelled(self._arrival_rate, tenant=tenant).set(sample.arrival_rate_rps)
        if forecast_rps is not None:
            self._labelled(self._forecast, tenant=tenant).set(forecast_rps)
            self._labelled(self._forecast_error, tenant=tenant).observe(
                abs(forecast_rps - sample.arrival_rate_rps)
            )

    # -- end-of-run rollups -----------------------------------------------------------

    def observe_queue_stats(self, stats: Mapping[str, object]) -> None:
        """Fold the gateway's per-tenant queue counters in (run end, once)."""
        enq = self.registry.counter(
            "repro_queue_enqueued_total",
            help="Requests admitted to the fair queue.",
            labels=self._region_labels + ("tenant",),
        )
        disp = self.registry.counter(
            "repro_queue_dispatched_total",
            help="Requests dispatched from the fair queue to a replica.",
            labels=self._region_labels + ("tenant",),
        )
        dropped = self.registry.counter(
            "repro_queue_dropped_total",
            help="Arrivals refused at the admission bound.",
            labels=self._region_labels + ("tenant",),
        )
        timed_out = self.registry.counter(
            "repro_queue_timed_out_total",
            help="Queued requests that outlived the queue timeout.",
            labels=self._region_labels + ("tenant",),
        )
        shed = self.registry.counter(
            "repro_queue_shed_total",
            help="Hard-deadline requests shed by admission control.",
            labels=self._region_labels + ("tenant",),
        )
        for tenant, tenant_stats in stats.items():
            self._labelled(enq, tenant=tenant).inc(tenant_stats.enqueued)
            self._labelled(disp, tenant=tenant).inc(tenant_stats.dispatched)
            self._labelled(dropped, tenant=tenant).inc(tenant_stats.dropped)
            self._labelled(timed_out, tenant=tenant).inc(tenant_stats.timed_out)
            self._labelled(shed, tenant=tenant).inc(tenant_stats.shed)

    def observe_middleware(self, stats: Mapping[str, Mapping[str, int]]) -> None:
        """Fold the gateway pipeline's per-stage counters in (run end, once).

        ``stats`` is :meth:`repro.gateway.MiddlewarePipeline.stats` — stage
        name to its event counters (hits/misses, parked/fanned_out, fired/
        won, rejected...).  Each becomes one labelled child of a single
        counter family, so Prometheus scrapes and JSONL consumers see every
        stage the same way.
        """
        if not stats:
            return
        events = self.registry.counter(
            "repro_middleware_events_total",
            help="Gateway middleware events, by stage and event type.",
            labels=self._region_labels + ("stage", "event"),
        )
        for stage, counters in stats.items():
            for event, count in counters.items():
                self._labelled(events, stage=stage, event=event).inc(count)
            if self.events is not None:
                payload: Dict[str, object] = {"event": "middleware", "stage": stage}
                payload.update(counters)
                self._emit(payload)

    def observe_memory(
        self, tenants: Mapping[str, "tuple[int, float, float]"]
    ) -> None:
        """Fold per-tenant memory economics in (run end, memory runs only).

        ``tenants`` maps tenant name to ``(oom_evictions, rss_mb_seconds,
        cpu_seconds)``.  Only called when the memory model ran, and the
        gauge families are created here, so memory-free runs never grow
        their exposition.
        """
        if not tenants:
            return
        rss = self.registry.gauge(
            "repro_tenant_rss_mb_seconds",
            help="Integral of replica RSS over residency (MB x seconds).",
            labels=self._region_labels + ("tenant",),
        )
        cpu = self.registry.gauge(
            "repro_tenant_cpu_seconds",
            help="Replica-busy CPU seconds (hedged losers included).",
            labels=self._region_labels + ("tenant",),
        )
        for tenant, (evictions, rss_mb_seconds, cpu_seconds) in tenants.items():
            self._labelled(rss, tenant=tenant).set(rss_mb_seconds)
            self._labelled(cpu, tenant=tenant).set(cpu_seconds)
            if self.events is not None:
                self._emit(
                    {
                        "event": "memory",
                        "tenant": tenant,
                        "oom_evictions": evictions,
                        "rss_mb_seconds": round(rss_mb_seconds, 9),
                        "cpu_seconds": round(cpu_seconds, 9),
                    }
                )

    def observe_node_usage(self, nodes: Mapping[str, object]) -> None:
        """Fold per-node ledger rollups into node gauges (run end, once)."""
        charges = self.registry.gauge(
            "repro_node_charges",
            help="Cost-ledger entries charged on the node.",
            labels=self._region_labels + ("node",),
        )
        seconds = self.registry.gauge(
            "repro_node_charged_seconds",
            help="Total simulated seconds charged on the node's ledger shard.",
            labels=self._region_labels + ("node",),
        )
        cpu = self.registry.gauge(
            "repro_node_cpu_seconds",
            help="CPU seconds charged on the node.",
            labels=self._region_labels + ("node",),
        )
        memory = self.registry.gauge(
            "repro_node_peak_memory_mb",
            help="Peak memory charged on the node, in MiB.",
            labels=self._region_labels + ("node",),
        )
        for name, usage in nodes.items():
            self._labelled(charges, node=name).set(usage.charges)
            self._labelled(seconds, node=name).set(usage.total_seconds)
            self._labelled(cpu, node=name).set(usage.cpu_seconds)
            self._labelled(memory, node=name).set(usage.peak_memory_mb)

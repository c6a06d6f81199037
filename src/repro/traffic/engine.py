"""The traffic engine: sustained multi-client load as a discrete-event run.

The paper measures one transfer at a time; this engine measures the
*platform*: seeded arrival streams are admitted through the
:class:`~repro.platform.gateway.IngressGateway`, queued while replicas are
busy or still cold-starting, executed with bounded per-replica and per-node
concurrency, and accounted per request with queueing delay separated from
service time.  An :class:`~repro.traffic.autoscaler.Autoscaler` closes the
loop each control interval, growing the pool (paying the runtime's modelled
cold start through the orchestrator) and reclaiming replicas idle past
their keep-alive.

Runs can be multi-tenant: a :class:`~repro.traffic.tenants.TenantSpec` list
drives several named functions concurrently over *one* shared cluster, so
their replica pools contend for the same node cores.  Queueing lives in the
gateway's :class:`~repro.platform.gateway.FairQueue` — per-tenant queues
dispatched either globally FIFO or by weighted fair queueing — and a
:class:`~repro.traffic.tenants.CapacityArbiter` keeps any one tenant's
autoscaler from absorbing the whole cluster.

One driver runs all of it.  The single-stream :class:`TrafficEngine` is the
one-tenant case of :class:`MultiTenantTrafficEngine`, which in turn is a
one-region federation: its run is the
:class:`~repro.traffic.federation.FederatedTrafficEngine` simulation over
one region named ``traffic``, and its summary is that region's
:class:`~repro.traffic.cluster_runtime.ClusterRuntime` snapshot.

Service times come from the same machinery as every figure in the
reproduction: each distinct (mode, payload size) is invoked once through an
isolated :func:`~repro.experiments.environment.build_pair_setup`
environment and cached — the simulation is deterministic, so the
per-request cost of a given transfer never varies.  Contention is then
modelled by the engine's concurrency bounds rather than by re-simulating
every transfer, which keeps hundred-thousand-request runs cheap.

Everything is driven by one serial :class:`~repro.sim.engine.EventLoop`,
so a seeded run is exactly reproducible: same arrivals, same scaling
decisions, same percentiles.  Cost accounting is sharded per node (each
node of the serving cluster charges its own
:class:`~repro.sim.ledger.NodeLedger`), which is what per-node usage
rollups read.  Compared runs (:func:`run_comparison`,
:func:`~repro.traffic.policies.compare_scaling_policies`) are independent
simulations and can ship whole to worker processes, which is where
multi-core hosts win their wall-clock; the results are identical to the
serial comparison under the same seeds.
"""

from __future__ import annotations

import heapq

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Type

from typing import TYPE_CHECKING

from repro.platform.gateway import FairnessPolicy, IntraTenantOrder
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL
from repro.sim.engine import EventLoop, parallel_map
from repro.traffic.arrivals import Request

from repro.traffic.cluster_runtime import MB, _TenantState, calibrated_service_time
from repro.traffic.autoscaler import Autoscaler, TargetConcurrencyPolicy
from repro.traffic.slo import RequestRecord, TrafficSummary
from repro.traffic.tenants import MultiTenantSummary, TenantSpec

if TYPE_CHECKING:  # pragma: no cover - runtime imports are lazy to avoid a
    # cycle: repro.obs.spans imports repro.traffic.slo, whose package
    # __init__ imports this module.
    from repro.gateway.middleware import MiddlewarePipeline
    from repro.obs.spans import WaterfallRow
    from repro.obs.telemetry import Telemetry

__all__ = [
    "MB",
    "TRAFFIC_MODES",
    "TrafficEngineError",
    "TrafficConfig",
    "TrafficEngine",
    "MultiTenantTrafficEngine",
    "run_comparison",
]

#: Modes the traffic engine can drive (single-node deployments).
TRAFFIC_MODES: Tuple[str, ...] = (
    "roadrunner-user",
    "roadrunner-kernel",
    "runc-http",
    "wasmedge-http",
)


class TrafficEngineError(RuntimeError):
    """Raised for invalid engine configurations or request streams."""


@dataclass(frozen=True)
class TrafficConfig:
    """Knobs of one sustained-load run."""

    #: Nodes in the serving cluster; replicas spread round-robin across them.
    nodes: int = 4
    #: Concurrent requests one replica serves (1 = FaaS single-concurrency).
    per_replica_concurrency: int = 1
    #: Replicas registered (and cold-started) per tenant before the first arrival.
    initial_replicas: int = 1
    #: Admission bound per tenant: arrivals beyond this queue depth are dropped.
    max_queue: int = 10_000
    #: Requests queued longer than this time out (never reach a replica).
    queue_timeout_s: float = 30.0
    cost_model: CostModel = DEFAULT_COST_MODEL
    #: Keep one RequestRecord per request (exact percentiles, O(requests)
    #: memory).  False switches the engine to streaming accumulators and
    #: log-histogram quantile sketches: summaries keep their shape, memory
    #: stays constant.
    retain_records: bool = True
    #: Per-node RSS budget in MB.  0 (the default) disables the memory
    #: model entirely: replicas carry no footprint, services never inflate,
    #: the evictor never runs, and every output stays byte-identical to a
    #: run built before the model existed.
    node_memory_mb: float = 0.0
    #: Per-replica RSS override in MB (``None`` = each tenant's runtime
    #: profile default: the container baseline for runc, the Wasm baseline
    #: otherwise).  Tenant specs can override per tenant via ``rss_mb``.
    replica_rss_mb: Optional[float] = None
    #: Fraction of the node budget above which service times inflate (the
    #: multiplier then climbs linearly to ``1 + DEFAULT_PRESSURE_SLOPE`` at
    #: the budget; see :mod:`repro.traffic.memory`).
    pressure_knee: float = 0.85

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise TrafficEngineError("need at least one node")
        if self.per_replica_concurrency < 1:
            raise TrafficEngineError("per_replica_concurrency must be >= 1")
        if self.initial_replicas < 0:
            raise TrafficEngineError("initial_replicas must be non-negative")
        if self.max_queue < 1:
            raise TrafficEngineError("max_queue must be >= 1")
        if self.queue_timeout_s <= 0:
            raise TrafficEngineError("queue_timeout_s must be positive")
        if self.node_memory_mb < 0:
            raise TrafficEngineError("node_memory_mb must be non-negative")
        if self.replica_rss_mb is not None and self.replica_rss_mb <= 0:
            raise TrafficEngineError("replica_rss_mb must be positive")
        if not 0.0 < self.pressure_knee < 1.0:
            raise TrafficEngineError("pressure_knee must be in (0, 1)")

    @property
    def memory_enabled(self) -> bool:
        """Whether this run models memory at all."""
        return self.node_memory_mb > 0


def validate_tenants(
    tenants: Sequence[TenantSpec],
    error: Type[TrafficEngineError],
    oversubscription: float,
    starvation_guard: int,
) -> List[str]:
    """Check an engine's tenants and gateway knobs; return the tenant names.

    Every engine needs the same guarantees: at least one tenant, unique
    names (``cluster`` is reserved for the cluster-wide rollup), unique
    functions, known modes, ``oversubscription >= 1`` and
    ``starvation_guard >= 1``.  Failures raise ``error``, so each engine
    reports them under its own exception class.
    """
    if not tenants:
        raise error("need at least one tenant")
    names = [tenant.name for tenant in tenants]
    if len(set(names)) != len(names):
        raise error("tenant names must be unique, got %s" % names)
    if "cluster" in names:
        raise error("tenant name 'cluster' is reserved for the cluster-wide rollup")
    functions = [tenant.function_name for tenant in tenants]
    if len(set(functions)) != len(functions):
        raise error("tenant functions must be unique, got %s" % functions)
    for tenant in tenants:
        if tenant.mode not in TRAFFIC_MODES:
            raise error(
                "tenant %r: unknown traffic mode %r (known: %s)"
                % (tenant.name, tenant.mode, ", ".join(TRAFFIC_MODES))
            )
    if oversubscription < 1.0:
        raise error("oversubscription must be >= 1.0")
    if starvation_guard < 1:
        raise error("starvation_guard must be >= 1")
    return names


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
    """Chain every tenant's arrivals through ``admit``, lazily and in order.

    Arrivals are *not* pre-scheduled: a million heap entries up front
    would dominate the run's memory and heap-sift work.  Instead the
    per-tenant streams — each already in (arrival_s, request_id) order —
    are lazily merged, one order slot per arrival is reserved so
    tie-breaking matches the old pre-scheduled order exactly, and each
    arrival event chains the next one from the merged iterator.
    """

    def tenant_entries(
        index: int, state: _TenantState, requests: Sequence[Request]
    ) -> "Iterator[Tuple[float, int, int, _TenantState, Request]]":
        for request in requests:
            yield (request.arrival_s, index, request.request_id, state, request)

    streams = [
        tenant_entries(index, state, _ordered_requests(state.requests))
        for index, state in enumerate(states)
    ]
    # ``heapq.merge`` with already-sorted streams reproduces the old
    # ``sorted(all_entries, key=entry[:3])`` order: keys differ across
    # tenants (the index is part of the key) and within a tenant the
    # stream order is preserved for ties, exactly like a stable sort.
    arrival_iter = heapq.merge(*streams, key=lambda entry: entry[:3])
    arrival_base = loop.reserve_orders(total_requests)
    arrival_slot = 0

    def advance_arrivals() -> None:
        nonlocal arrival_slot
        entry = next(arrival_iter, None)
        if entry is None:
            return
        loop.schedule_at(
            entry[0],
            arrival_event,
            label="arrive",
            args=(entry[3], entry[4]),
            order=arrival_base + arrival_slot,
        )
        arrival_slot += 1

    def arrival_event(state: _TenantState, request: Request) -> None:
        admit(state, request)
        advance_arrivals()

    advance_arrivals()


class MultiTenantTrafficEngine:
    """Drives several tenants' arrival streams over one shared cluster."""

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        config: Optional[TrafficConfig] = None,
        fairness: FairnessPolicy = FairnessPolicy.WFQ,
        starvation_guard: int = 32,
        autoscaler_factory: Optional[Callable[[], Autoscaler]] = None,
        oversubscription: float = 2.0,
        service_cache: Optional[Dict[Tuple[str, int], float]] = None,
        intra: IntraTenantOrder = IntraTenantOrder.FIFO,
        telemetry: Optional[Telemetry] = None,
        middleware: Optional[MiddlewarePipeline] = None,
    ) -> None:
        validate_tenants(tenants, TrafficEngineError, oversubscription, starvation_guard)
        self.tenants = list(tenants)
        self.config = config or TrafficConfig()
        self.fairness = fairness
        self.starvation_guard = starvation_guard
        self.intra = intra
        self.oversubscription = oversubscription
        self.autoscaler_factory = autoscaler_factory or (
            lambda: Autoscaler(TargetConcurrencyPolicy(1.0))
        )
        self.clock = SimClock()
        self._service_cache: Dict[Tuple[str, int], float] = (
            service_cache if service_cache is not None else {}
        )
        self.telemetry = telemetry
        #: Optional gateway middleware chain every request is threaded
        #: through (:mod:`repro.gateway.middleware`).  ``None`` — or a
        #: pipeline with no enabled stages — leaves the request path
        #: byte-identical to a run without one.
        self.middleware = middleware
        #: Per-stage middleware counters of the last run ({} without one).
        self.middleware_stats: Dict[str, Dict[str, int]] = {}
        #: Per-tenant records of the last run (sorted by request id).
        #: Empty lists in sketch mode — nothing is retained there.
        self.records: Dict[str, List[RequestRecord]] = {}
        #: OOM evictions of the last run, in firing order: (time, tenant,
        #: replica name).  Empty unless the memory model ran.
        self.evictions: List[Tuple[float, str, str]] = []
        #: Latency-waterfall rows of the last run (per tenant + cluster).
        self.waterfall: List[WaterfallRow] = []

    # -- public API -----------------------------------------------------------------

    def run(self) -> MultiTenantSummary:
        """Admit, queue, execute and account every tenant's stream.

        The run is a one-region federation — region ``traffic`` with this
        config's nodes — driven by the federation's own simulation; the
        summary is that region's snapshot, and no federation-wide rollup
        is built.
        """
        from repro.traffic.federation import ClusterSpec, FederatedTrafficEngine

        federation = FederatedTrafficEngine(
            self.tenants,
            [ClusterSpec(region="traffic", nodes=self.config.nodes)],
            config=self.config,
            fairness=self.fairness,
            starvation_guard=self.starvation_guard,
            autoscaler_factory=self.autoscaler_factory,
            oversubscription=self.oversubscription,
            intra=self.intra,
            telemetry_factory=lambda region: self.telemetry,
            middleware_factory=lambda region: self.middleware,
            service_cache=self._service_cache,
        )
        runtimes, duration, _ = federation._simulate(self.clock, self._service_time)
        runtime = runtimes["traffic"]
        summary = runtime.snapshot(duration)
        self.records = runtime.records
        self.waterfall = runtime.waterfall
        self.evictions = runtime.evictions
        self.middleware_stats = runtime.middleware_stats
        return summary

    # -- service times ---------------------------------------------------------------

    def _service_time(self, mode: str, payload_bytes: int) -> float:
        # This is the one-region simulation's calibration entry point;
        # FederatedTrafficEngine has its own only because bench/trace.py
        # names each in its own class body.
        return calibrated_service_time(
            self._service_cache, mode, payload_bytes, self.config.cost_model
        )


class TrafficEngine:
    """Drives one arrival stream against one runtime mode.

    The single-tenant special case of :class:`MultiTenantTrafficEngine`:
    one function, one pool, a FIFO admission queue — exactly the regime the
    sustained-load benchmarks compare runtimes under.
    """

    def __init__(
        self,
        mode: str,
        autoscaler: Optional[Autoscaler] = None,
        config: Optional[TrafficConfig] = None,
        intra: IntraTenantOrder = IntraTenantOrder.FIFO,
        telemetry: Optional[Telemetry] = None,
        middleware: Optional[MiddlewarePipeline] = None,
    ) -> None:
        if mode not in TRAFFIC_MODES:
            raise TrafficEngineError(
                "unknown traffic mode %r (known: %s)" % (mode, ", ".join(TRAFFIC_MODES))
            )
        self.mode = mode
        self.config = config or TrafficConfig()
        self.autoscaler = autoscaler or Autoscaler(TargetConcurrencyPolicy(1.0))
        self.intra = intra
        self.telemetry = telemetry
        self.middleware = middleware
        self.middleware_stats: Dict[str, Dict[str, int]] = {}
        self.records: List[RequestRecord] = []
        self.waterfall: List[WaterfallRow] = []
        self.evictions: List[Tuple[float, str, str]] = []
        self._service_cache: Dict[Tuple[str, int], float] = {}

    def run(self, requests: Sequence[Request], pattern: str = "trace") -> TrafficSummary:
        """Admit, queue, execute and account every request in the stream."""
        if not requests:
            raise TrafficEngineError("cannot run an empty request stream")
        functions = {request.function for request in requests}
        if len(functions) != 1:
            raise TrafficEngineError(
                "the engine serves one function per run, got %s" % sorted(functions)
            )
        function = requests[0].function
        # Internal tenant label (the old engine's spec tenant): the caller's
        # function name stays free of the multi-tenant name rules.
        tenant = TenantSpec(
            name="tenant-1",
            mode=self.mode,
            weight=1,
            requests=requests,
            function=function,
            pattern=pattern,
        )
        engine = MultiTenantTrafficEngine(
            [tenant],
            config=self.config,
            fairness=FairnessPolicy.FIFO,
            autoscaler_factory=lambda: self.autoscaler,
            oversubscription=1.0,  # replicas beyond the cores could never serve
            service_cache=self._service_cache,
            intra=self.intra,
            telemetry=self.telemetry,
            middleware=self.middleware,
        )
        result = engine.run()
        self.middleware_stats = engine.middleware_stats
        self.records = engine.records["tenant-1"]
        self.evictions = engine.evictions
        # Relabel the internal tenant's waterfall rows with the mode name.
        self.waterfall = [
            replace(row, label=self.mode)
            for row in engine.waterfall
            if row.label == "tenant-1"
        ]
        return result.tenants["tenant-1"]


def _run_single_mode(
    mode: str,
    requests: Sequence[Request],
    autoscaler: Optional[Autoscaler],
    config: Optional[TrafficConfig],
    pattern: str,
    intra: IntraTenantOrder,
    telemetry: Optional[Telemetry] = None,
    middleware: Optional[MiddlewarePipeline] = None,
) -> Tuple[TrafficSummary, List[WaterfallRow], Dict[str, Dict[str, int]]]:
    """One mode's complete simulation — the unit of process-level parallelism.

    Module-level and built from plain data, so a worker process can run an
    entire cluster (nodes, ledger shards, clock and all) independently.
    Returns the summary plus the run's waterfall rows and middleware
    counters, which pickle back to the parent alongside it.
    """
    engine = TrafficEngine(
        mode,
        autoscaler=autoscaler,
        config=config,
        intra=intra,
        telemetry=telemetry,
        middleware=middleware,
    )
    summary = engine.run(requests, pattern=pattern)
    return summary, engine.waterfall, engine.middleware_stats


def run_comparison(
    requests: Sequence[Request],
    modes: Sequence[str] = ("roadrunner-user", "runc-http"),
    autoscaler_factory=None,
    config: Optional[TrafficConfig] = None,
    pattern: str = "trace",
    intra: IntraTenantOrder = IntraTenantOrder.FIFO,
    parallel: bool = False,
    telemetry_factory: Optional[Callable[[str], Telemetry]] = None,
    waterfalls_out: Optional[Dict[str, List[WaterfallRow]]] = None,
    middleware_factory: Optional[Callable[[str], MiddlewarePipeline]] = None,
    middleware_out: Optional[Dict[str, Dict[str, Dict[str, int]]]] = None,
) -> Dict[str, TrafficSummary]:
    """Run the *same* arrival stream against several runtimes.

    Each mode gets a fresh engine and a fresh autoscaler (from
    ``autoscaler_factory``, defaulting to target-concurrency 1.0) so no
    state leaks between the compared runs — the arrival stream is the only
    thing they share.  With ``parallel`` each mode's whole simulation (its
    own cluster, per-node ledger shards and clock) runs in a worker
    process; results are identical to the serial comparison because every
    run is independent and seeded.

    ``telemetry_factory`` builds one :class:`~repro.obs.telemetry.Telemetry`
    per mode (called with the mode name); its sinks hold open file handles,
    so it requires the serial path.  ``waterfalls_out`` collects each
    mode's waterfall rows.
    ``middleware_factory`` builds one fresh
    :class:`~repro.gateway.middleware.MiddlewarePipeline` per mode (stage
    state like caches and token buckets must not leak between compared
    runs); ``middleware_out`` collects each mode's per-stage counters.
    """
    if telemetry_factory is not None and parallel:
        raise TrafficEngineError(
            "telemetry sinks cannot cross process boundaries; "
            "run the comparison serially to attach telemetry"
        )
    jobs = [
        (
            mode,
            requests,
            autoscaler_factory() if autoscaler_factory else None,
            config,
            pattern,
            intra,
            telemetry_factory(mode) if telemetry_factory else None,
            middleware_factory(mode) if middleware_factory else None,
        )
        for mode in modes
    ]
    if parallel:
        results = parallel_map(_run_single_mode, jobs)
    else:
        results = [_run_single_mode(*job) for job in jobs]
    summaries: Dict[str, TrafficSummary] = {}
    for mode, (summary, waterfall, middleware_stats) in zip(modes, results):
        summaries[mode] = summary
        if waterfalls_out is not None:
            waterfalls_out[mode] = waterfall
        if middleware_out is not None:
            middleware_out[mode] = middleware_stats
    return summaries

"""One serving cluster's runtime: the reusable core of the traffic engine.

:class:`ClusterRuntime` owns everything that belongs to *one* cluster —
the :class:`~repro.platform.gateway.IngressGateway` and its
:class:`~repro.platform.gateway.FairQueue`, the per-tenant autoscalers and
the capacity arbiter, the optional :class:`~repro.traffic.memory.NodeMemoryModel`,
the gateway middleware pipeline, the cluster's ledger shards, and all
replica/dispatch bookkeeping.

Its event handlers are :meth:`~ClusterRuntime.admit` (one request enters
the cluster), :meth:`~ClusterRuntime.complete`,
:meth:`~ClusterRuntime.expire` (a queue timeout),
:meth:`~ClusterRuntime.tick` (one tenant's autoscaler control interval)
and :meth:`~ClusterRuntime.warm` (a replica finished its cold start).
Every control decision is a method of its own:
:meth:`~ClusterRuntime.service_for` (serve or shed),
:meth:`~ClusterRuntime.pick` (which replica), :meth:`~ClusterRuntime.dispatch`,
:meth:`~ClusterRuntime.start`, :meth:`~ClusterRuntime.add_replicas`,
:meth:`~ClusterRuntime.drop_replica`,
:meth:`~ClusterRuntime.evict_over_budget` and
:meth:`~ClusterRuntime.reclaim`; every terminal outcome is accounted by
:meth:`~ClusterRuntime.resolve`, and :meth:`~ClusterRuntime.snapshot`
rolls the run up into a :class:`~repro.traffic.tenants.MultiTenantSummary`.

Its one driver is :class:`~repro.traffic.federation.FederatedTrafficEngine`,
which instantiates one runtime per region over one shared
:class:`~repro.sim.engine.EventLoop` behind a global router and hands each
its own calibration entry point; the single-cluster
:class:`~repro.traffic.engine.MultiTenantTrafficEngine` is that driver
built over one region, and its run returns the region's :meth:`snapshot`.
Every summary — per tenant, per cluster, federation-wide — goes through
:func:`rollup`, which reads one
:class:`~repro.obs.streaming.StreamingTrafficStats` accumulator in either
mode.

Dispatch costs O(1) queue work per request and never scans a pool:

* **The free index.**  Each tenant keeps the replicas that are ready and
  under ``per_replica_concurrency``, ordered by (in-flight count, pool
  position), the position being a registration serial.  The load
  balancer's least-loaded pick, first in pool order on a tie, is then the
  first indexed replica on a node with a free core (:meth:`~ClusterRuntime.pick`),
  and a hedge takes the next such replica.  Selection re-keys a replica
  one step up, or takes it out when it fills; release re-keys it one step
  down, or puts it back; dropping it removes it.  Registered replicas wait
  in a pending list until a pick sees their ``ready_at`` pass — lazily,
  not at their ``warm`` event, so every event at that instant sees them
  exactly as a pool scan would.  The gateway keeps its in-flight and
  ingress bookkeeping (:meth:`~repro.platform.gateway.IngressGateway.acquire_state`).
* **The empty-queue pass-through.**  A request that arrives at an empty
  queue while its tenant has a candidate is the head the next dispatch
  pass would take, so :meth:`~ClusterRuntime.admit` serves (or sheds) it
  directly, and the queue accounts it with one
  :meth:`~repro.platform.gateway.FairQueue.pass_through` — the same stats,
  tags and cost snapshot as an enqueue plus a pop, without a heap push, a
  timeout slot or a re-scan.  Only the relative order of events and queue
  entries matters, so skipping those draws leaves every output unchanged.
  Queued work goes through :meth:`~ClusterRuntime.dispatch`, which shares
  everything after the queue decision (:meth:`~ClusterRuntime.start`, or
  the shed record) with the pass-through, and which a completion calls
  only when work is waiting.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from bisect import bisect_left

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

from repro.experiments.harness import measure_pair
from repro.platform.deployment import DeployedFunction
from repro.platform.cluster import Cluster
from repro.platform.function import FunctionSpec
from repro.platform.gateway import IngressGateway
from repro.platform.orchestrator import Orchestrator
from repro.sim.costs import WASM_MAX_PAGES, WASM_PAGE_SIZE, CostModel
from repro.sim.ledger import CostCategory, CostLedger
from repro.traffic.arrivals import MAX_OFFERED_REQUESTS, ArrivalError, Request
from repro.traffic.autoscaler import Autoscaler, LoadSample
from repro.traffic.slo import RequestOutcome, RequestRecord, TrafficSummary, check_times
from repro.traffic.tenants import CapacityArbiter, MultiTenantSummary, NodeUsage, TenantSpec
from repro.wasm.linear_memory import LinearMemory
from repro.wasm.runtime import RuntimeKind

if TYPE_CHECKING:  # pragma: no cover - runtime imports stay lazy to avoid
    # a cycle through repro.obs (whose modules import repro.traffic.slo).
    from repro.gateway.middleware import MiddlewarePipeline, RequestContext
    from repro.obs.spans import WaterfallRow
    from repro.obs.streaming import Rollups, StreamingTrafficStats
    from repro.obs.telemetry import Telemetry

MB = 1024 * 1024

# Bound once: on CPython 3.11 looking a member up on its enum class is
# over 20x slower than reading a module global, and every completion event
# passes it.
_COMPLETED = RequestOutcome.COMPLETED
_SHED = RequestOutcome.SHED
_DROPPED = RequestOutcome.DROPPED
_TIMED_OUT = RequestOutcome.TIMED_OUT
# The AdmitAction members ``admit`` tests, bound when the first runtime
# with a middleware pipeline is built: repro.gateway.middleware imports
# repro.traffic.slo, so importing it here at load time would be a cycle.
_SHORT_CIRCUIT = _PARK = None


def _bind_admit_actions() -> None:
    global _SHORT_CIRCUIT, _PARK
    from repro.gateway.middleware import AdmitAction

    _SHORT_CIRCUIT, _PARK = AdmitAction.SHORT_CIRCUIT, AdmitAction.PARK


#: Bound on one request's calibrated service seconds.  Each tenant's
#: autoscaler ticks once per control interval (1 s by default) while any
#: request is unfinished, so a service of S seconds costs about S events;
#: the bound allows as many as :data:`MAX_OFFERED_REQUESTS` allows arrivals.
#: Only RunC can reach it: the Wasm modes' linear memory bounds their
#: payloads (:func:`max_payload_bytes`), RunC's staging is unbounded.
MAX_SERVICE_S = float(MAX_OFFERED_REQUESTS)


def max_payload_bytes(mode: str, cost_model: CostModel) -> Optional[int]:
    """The largest payload ``mode``'s two-function chain can carry, or ``None``.

    The Wasm modes stage each payload in a linear memory of at most
    ``WASM_MAX_PAGES`` pages, above the allocator's reserved region.
    WasmEdge holds the payload and its serialized copy there side by side.
    RunC's containers stage nothing in a linear memory.
    """
    if mode == "runc-http":
        return None
    capacity = WASM_MAX_PAGES * WASM_PAGE_SIZE - LinearMemory.RESERVED_BYTES
    if mode != "wasmedge-http":
        return capacity
    inflation = 1 + cost_model.serialized_inflation
    largest = int((capacity - cost_model.http_header_bytes) / inflation)
    while largest + cost_model.serialized_size(largest) > capacity:
        largest -= 1
    while largest + 1 + cost_model.serialized_size(largest + 1) <= capacity:
        largest += 1
    return largest


@functools.lru_cache(maxsize=None)
def calibrated_service_time(mode: str, payload_bytes: int, cost_model: CostModel) -> float:
    """Workflow latency for one (mode, payload size, cost model), measured once per process.

    The measurement is :func:`~repro.experiments.harness.measure_pair`: the
    canonical two-function chain in a fresh isolated environment (fresh
    cluster, ledger shards and clock), the path every figure in the
    reproduction uses.  It depends only on its arguments, so the value is
    memoised here for every engine and run of the process and never goes
    stale.  A payload larger than :func:`max_payload_bytes`, or one whose
    service would take longer than :data:`MAX_SERVICE_S`, is refused with
    an :class:`ArrivalError` (and nothing is memoised).
    """
    largest = max_payload_bytes(mode, cost_model)
    if largest is not None and payload_bytes > largest:
        raise ArrivalError(
            "payload_mb %r (%d bytes) exceeds the largest %s payload, %r MB (%d bytes)"
            % (payload_bytes / MB, payload_bytes, mode, largest / MB, largest)
        )
    latency = measure_pair(mode, payload_bytes / MB, cost_model=cost_model).total_latency_s
    if latency > MAX_SERVICE_S:
        raise ArrivalError(
            "payload_mb %r takes %r s of %s service per request, past the bound of %r s"
            % (payload_bytes / MB, latency, mode, MAX_SERVICE_S)
        )
    return latency


def _spec_for_mode(mode: str, function: str, tenant: str = "tenant-1") -> FunctionSpec:
    if mode == "runc-http":
        kind = RuntimeKind.RUNC
    elif mode == "wasmedge-http":
        kind = RuntimeKind.WASMEDGE
    else:
        kind = RuntimeKind.ROADRUNNER
    return FunctionSpec(
        name=function,
        runtime=kind,
        requires_wasi=kind is not RuntimeKind.RUNC,
        workflow="traffic",
        tenant=tenant,
    )


@dataclass
class _Replica:
    """Engine-side view of one gateway replica.

    Only warm-up and idleness live here; in-flight counts stay in the
    gateway (the load balancer's bookkeeping is the single source of
    truth — the runtime reads it off ``gw_state``, which
    :meth:`~repro.platform.gateway.IngressGateway.acquire_state` and
    :meth:`~repro.platform.gateway.IngressGateway.release_state` update).
    """

    deployed: DeployedFunction
    ready_at: float
    cold_s: float = 0.0
    idle_since: float = 0.0
    #: Modelled resident-set footprint (0.0 when the memory model is off).
    rss_mb: float = 0.0
    #: Registration time, for RSS-seconds (footprint x residency) accounting.
    born_s: float = 0.0
    #: The gateway's load-balancer state for this replica — held directly so
    #: the hot path reads in-flight counts and releases without pool scans.
    gw_state: Optional[object] = None
    #: ``deployed.node_name`` cached as a plain attribute (property calls on
    #: the deployment object showed up in million-request profiles).
    node: str = ""
    #: Registration serial: pool order is registration order, so it breaks
    #: in-flight ties in its tenant's free index.
    serial: int = 0


@dataclass
class _TenantState:
    """Everything the runtime tracks for one tenant during a run."""

    spec: TenantSpec
    function_spec: FunctionSpec
    autoscaler: Autoscaler
    requests: List[Request]
    replicas: List[_Replica] = field(default_factory=list)
    #: The free index: replicas that are ready and under their concurrency
    #: limit, ordered by (in-flight count, registration serial) — least
    #: loaded first, pool order on a tie — with those keys in ``free_keys``
    #: (the parallel list ``bisect`` searches).
    free: List[_Replica] = field(default_factory=list)
    free_keys: List[Tuple[int, int]] = field(default_factory=list)
    #: Registered replicas not yet seen ready, in pool order; a pick
    #: promotes each into ``free`` once its ``ready_at`` has passed.
    pending: List[_Replica] = field(default_factory=list)
    records: List[RequestRecord] = field(default_factory=list)
    #: Streaming accumulators, built instead of ``records`` in sketch mode
    #: by :func:`attach_streams`: every rollup this tenant's finished
    #: requests fold into, each object once.  The first is the tenant's
    #: own, the only one folded in full.
    streams: Rollups = ()
    timeline: List[Tuple[float, int]] = field(default_factory=list)
    cold_starts: int = 0
    cold_start_seconds: float = 0.0
    # Arrival-rate sampling for predictive scaling policies.
    arrivals_since_tick: int = 0
    last_tick_s: float = 0.0
    # Memory model (all stay zero when the model is off).
    rss_mb: float = 0.0          # resolved per-replica footprint
    oom_evictions: int = 0
    rss_mb_seconds: float = 0.0  # integral of RSS over replica residency
    cpu_seconds: float = 0.0     # replica-busy seconds (hedged losers too)
    # Spec-derived names, materialized once: these were properties, but the
    # request path reads them several times per request.
    name: str = field(init=False)
    function: str = field(init=False)

    def __post_init__(self) -> None:
        self.name = self.spec.name
        self.function = self.spec.function_name

    def index_free(self, replica: _Replica) -> None:
        """Put ``replica`` into the free index under its current in-flight count."""
        key = (replica.gw_state.in_flight, replica.serial)
        at = bisect_left(self.free_keys, key)
        self.free_keys.insert(at, key)
        self.free.insert(at, replica)

    def unindex_free(self, replica: _Replica, in_flight: int) -> None:
        """Take ``replica`` out of the index, where it sits under ``in_flight``."""
        at = bisect_left(self.free_keys, (in_flight, replica.serial))
        del self.free_keys[at]
        del self.free[at]


def attach_streams(
    states: Sequence[_TenantState],
    outer_tenants: Optional[Dict[str, StreamingTrafficStats]] = None,
    outer_cluster: Optional[StreamingTrafficStats] = None,
) -> StreamingTrafficStats:
    """Give each tenant the sketch-mode rollups it folds into; return the cluster's.

    Each tenant folds in full into its own rollup, the finest, which
    :class:`~repro.obs.streaming.Rollups` makes a member of the coarser
    ones: the cluster's and — when a federation passes them — its
    federation-wide tenant rollup (``outer_tenants[name]``) and the
    federation-wide ``outer_cluster``.  Those keep running sums per
    request and merge their members when read.  A single classless
    tenant's cluster rollup would hold exactly the tenant's requests, so
    the two are one object, folded once per request.
    """
    from repro.obs.streaming import Rollups, StreamingTrafficStats

    own = [StreamingTrafficStats(declared_classes=state.spec.class_names) for state in states]
    if len(states) == 1 and not states[0].spec.class_names:
        cluster = own[0]
    else:
        cluster = StreamingTrafficStats()
    for state, stream in zip(states, own):
        streams = (stream,) if stream is cluster else (stream, cluster)
        if outer_cluster is not None:
            streams += (outer_tenants[state.name], outer_cluster)
        state.streams = Rollups(streams)
    return cluster


def _merge_timelines(
    timelines: Sequence[Sequence[Tuple[float, int]]],
) -> List[Tuple[float, int]]:
    """Sum per-tenant (time, pool size) step functions into a cluster total."""
    # Each tenant's timeline is appended in event order (non-decreasing
    # time), so an N-way merge replaces the global sort.  The per-stream
    # sort is near-free on the almost-sorted input; it only reorders
    # same-instant entries by count, reproducing the full-tuple order the
    # replaced ``sorted()`` imposed (cross-stream ties already fall to the
    # tenant index inside each entry).
    events = heapq.merge(
        *(
            sorted((time_s, index, count) for time_s, count in timeline)
            for index, timeline in enumerate(timelines)
        )
    )
    current = [0] * len(timelines)
    merged: List[Tuple[float, int]] = []
    for time_s, index, count in events:
        current[index] = count
        total = sum(current)
        if merged and merged[-1][0] == time_s:
            merged[-1] = (time_s, total)
        else:
            merged.append((time_s, total))
    return merged


def rollup(
    mode: str,
    pattern: str,
    duration: float,
    states: Sequence[_TenantState],
    declared: Sequence[str],
    timeline: Sequence[Tuple[float, int]],
    stream: StreamingTrafficStats,
) -> TrafficSummary:
    """One summary over ``states``: the path every rollup takes.

    ``stream`` is the accumulator of these states' requests — the one they
    folded into (sketch mode) or one folded from their records
    (:func:`~repro.obs.streaming.fold_records`, exact mode).  The states'
    counters are summed, which over a single state is its own value bit
    for bit.
    """
    return stream.summary(
        mode=mode,
        pattern=pattern,
        duration_s=duration,
        cold_starts=sum(state.cold_starts for state in states),
        cold_start_seconds=sum(state.cold_start_seconds for state in states),
        replica_timeline=timeline,
        declared_classes=declared,
        oom_evictions=sum(state.oom_evictions for state in states),
        rss_mb_seconds=sum(state.rss_mb_seconds for state in states),
        cpu_seconds=sum(state.cpu_seconds for state in states),
    )


class ClusterRuntime:
    """One cluster's gateway, pools, scaling loop and accounting.

    Built over a shared clock and event loop, so several runtimes can
    coexist in one simulation (the federation layer).
    """

    __slots__ = (
        # What the drivers read.
        "states", "config", "fairness", "clock", "loop", "region", "by_tenant",
        "evictions", "records", "waterfall", "middleware_stats", "cluster_stream",
        # The cluster's parts, its per-node cores and busy counts.
        "cluster", "memory", "gateway", "arbiter", "cores", "node_busy",
        "halted", "last_event_s",
        # The run's inputs and the request path's private state.
        "_pipeline", "_telemetry", "_service_time", "_service_cache", "_counter",
        "_total_requests", "_builds_records", "_contexts", "_serials",
    )

    def __init__(
        self,
        *,
        states: Sequence[_TenantState],
        config,
        fairness,
        starvation_guard: int,
        intra,
        oversubscription: float,
        clock,
        loop,
        service_time: Callable[[str, int], float],
        counter: List[int],
        total_requests: int,
        telemetry: Optional[Telemetry] = None,
        pipeline: Optional[MiddlewarePipeline] = None,
        cluster_stream: Optional[StreamingTrafficStats] = None,
        region: str = "",
        node_prefix: str = "traffic",
    ) -> None:
        self.states = list(states)
        self.config = config
        self.fairness = fairness
        self.clock = clock
        self.loop = loop
        self.region = region
        self.by_tenant = {state.name: state for state in self.states}
        #: OOM evictions in firing order: (time, tenant, replica name).
        self.evictions: List[Tuple[float, str, str]] = []
        #: Per-tenant records of the last run (filled by :meth:`snapshot`).
        self.records: Dict[str, List[RequestRecord]] = {}
        #: Latency-waterfall rows of the last run (filled by :meth:`snapshot`).
        self.waterfall: List[WaterfallRow] = []
        #: Per-stage middleware counters (filled by :meth:`finalize`).
        self.middleware_stats: Dict[str, Dict[str, int]] = {}
        #: The cluster-wide sketch-mode rollup (``None`` in exact mode).
        self.cluster_stream = cluster_stream
        #: A failed region assigns no new work (see :meth:`fail`).
        self.halted = False
        #: The latest instant any request arrived, was served or timed out.
        self.last_event_s = 0.0
        self._pipeline = pipeline
        if pipeline is not None and _PARK is None:
            _bind_admit_actions()
        self._telemetry = telemetry
        self._service_time = service_time
        #: This run's service times by (mode, payload bytes), read on every
        #: start; ``service_time`` fills it.
        self._service_cache: Dict[Tuple[str, int], float] = {}
        #: Unresolved requests across every region of the run (shared).
        self._counter = counter
        self._total_requests = total_requests
        #: Whether a finished request is built into a RequestRecord: only
        #: when something reads one (exact mode keeps them, telemetry
        #: consumes them).  Otherwise sketch mode folds the request's
        #: scalars straight into its rollups.
        self._builds_records = config.retain_records or telemetry is not None
        #: In-pipeline requests: (tenant, request_id) -> RequestContext.
        #: Parked requests (coalesced followers) live only here and in their
        #: stage until the leader's completion fans them back out.
        self._contexts: Dict[Tuple[str, int], RequestContext] = {}
        #: Registration serials: pool order, the free index's key.
        self._serials = itertools.count()

        # The shared serving cluster: every tenant's pool lives behind one
        # gateway, every charge lands on one ledger timestamped on the
        # engine's simulated clock, and every replica competes for the same
        # node cores.
        cluster = Cluster(
            cost_model=config.cost_model,
            ledger=CostLedger(clock=clock, name=node_prefix),
        )
        for index in range(config.nodes):
            cluster.add_node("%s-%d" % (node_prefix, index))
        self.cluster = cluster
        # The memory model: None unless a node budget was configured, and
        # every use is guarded on that — a memory-free run touches none of
        # it and stays byte-identical to the pre-model engine.
        memory = None
        if config.memory_enabled:
            from repro.traffic.memory import NodeMemoryModel, default_replica_rss_mb

            memory = NodeMemoryModel(
                budget_mb=config.node_memory_mb,
                knee=config.pressure_knee,
                ledger=cluster.ledger,
            )
            for state in self.states:
                state.rss_mb = (
                    state.spec.rss_mb
                    or config.replica_rss_mb
                    or default_replica_rss_mb(state.spec.mode, config.cost_model)
                )
        self.memory = memory
        self.gateway = IngressGateway(
            Orchestrator(cluster),
            fairness=fairness,
            starvation_guard=starvation_guard,
            intra=intra,
        )
        for state in self.states:
            self.gateway.queue.register_tenant(state.name, state.spec.weight)
        #: Cores per node: they bound execution.
        self.cores = {name: cluster.node(name).cores for name in cluster.nodes}
        #: Busy requests per node across all tenants, maintained incrementally
        #: (+1 at every replica selection, -1 at every release) instead of
        #: being rebuilt from gateway pool scans on every dispatch pass.
        self.node_busy = {name: 0 for name in cluster.nodes}
        # Replica *slots* may oversubscribe the cores.  With
        # oversubscription 1.0 pools partition the cores and queueing order
        # is moot; above 1.0 pools overlap on cores and the fair queue
        # decides who gets a freed core — the contended regime
        # noisy-neighbour scenarios study.
        capacity = sum(self.cores.values())
        self.arbiter = CapacityArbiter(
            max(capacity, int(capacity * oversubscription)),
            {state.name: state.spec.weight for state in self.states},
        )

    # -- event handlers --------------------------------------------------------------

    def admit(self, state: _TenantState, request: Request) -> None:
        """One request enters the cluster: serve, queue, shed or drop it."""
        loop = self.loop
        now = loop.now
        # _note(arrival), inlined: this runs once per request.
        arrival = request.arrival_s
        if arrival > self.last_event_s:
            self.last_event_s = arrival
        self.clock.advance_to(now)
        state.arrivals_since_tick += 1
        pipeline = self._pipeline
        if pipeline is not None:
            ctx = pipeline.context(state.name, request)
            decision = pipeline.admit(ctx, arrival)
            self._contexts[(state.name, request.request_id)] = ctx
            if decision.action is _SHORT_CIRCUIT:
                # Terminal at the gateway: a cache hit (served, with a
                # completion instant) or a refusal (rate limit / auth).
                completion = decision.completion_s
                if completion is not None:
                    self._note(completion)
                self.resolve(state, request, decision.outcome, completion)
                return
            if decision.action is _PARK:
                # Parked behind an identical in-flight request: no queue
                # slot, no timeout event — the leader's completion (or
                # failure) resolves it through the pipeline unwind.
                return
        queue = self.gateway.queue
        if not self.halted and not queue.total_depth():
            # Nothing waits ahead of this request: if a replica is free
            # it is the head a dispatch pass would take, so serve it
            # straight away — the queue accounts it as an enqueue plus
            # a pop (or shed) without ever holding it.
            at = self.pick(state, now)
            if at >= 0:
                service = self.service_for(state, request, now)
                if service is None:
                    queue.pass_through(state.name, shed=True)
                    self.resolve(state, request, _SHED)
                else:
                    queue.pass_through(state.name)
                    self.start(state, request, at, service, now)
                return
        admitted = queue.enqueue(
            state.name,
            request.request_id,
            request,
            limit=self.config.max_queue,
            priority=request.priority,
            deadline=request.deadline_s,
        )
        if not admitted:
            self.resolve(state, request, _DROPPED)
            return
        # The timeout event is only materialized if the request is still
        # waiting after the dispatch pass.  Its tie-break slot is
        # reserved *before* dispatching, so when it is scheduled it
        # sorts exactly where an eagerly scheduled timeout would have.
        timeout_order = loop.reserve_orders(1)
        self.dispatch(now)
        if queue.is_queued(state.name, request.request_id):
            timeout_at = arrival + self.config.queue_timeout_s
            if timeout_at < now:
                # A request handed over a WAN link arrives with part of
                # its patience already spent; an exhausted budget times
                # out immediately rather than scheduling into the past.
                timeout_at = now
            loop.schedule_at(
                timeout_at,
                self.expire,
                label="timeout",
                args=(state, request),
                order=timeout_order,
            )

    def complete(
        self,
        state: _TenantState,
        request: Request,
        replica: _Replica,
        loser: Optional[_Replica],
        dispatched: float,
        completion: float,
        cold_wait: float,
    ) -> None:
        """One request's completion event: account it, free its replicas."""
        self._release(state, replica, dispatched, completion)
        if loser is not None:
            # The hedge's losing attempt is cancelled now: its replica
            # frees the moment the winner answers the client.
            self._release(state, loser, dispatched, completion)
        self.resolve(state, request, _COMPLETED, completion, dispatched, cold_wait, replica)
        if self.gateway.queue.total_depth():
            self.dispatch(self.loop.now)

    def expire(self, state: _TenantState, request: Request) -> None:
        """Time out a request still waiting when its patience ran out."""
        if not self.gateway.queue.cancel(state.name, request.request_id):
            return
        self.resolve(state, request, _TIMED_OUT)
        self._note(self.loop.now)

    def tick(self, state: _TenantState) -> None:
        """One tenant's autoscaler control interval: scale, then dispatch."""
        if self.halted or self._counter[0] <= 0:
            return
        gateway = self.gateway
        now = self.loop.now
        interval = now - state.last_tick_s
        rate = state.arrivals_since_tick / interval if interval > 0 else 0.0
        state.arrivals_since_tick = 0
        state.last_tick_s = now
        estimate = gateway.queue.cost_estimate(state.name)
        sample = LoadSample(
            time_s=now,
            in_flight=gateway.total_in_flight(state.function) if state.replicas else 0,
            queued=gateway.queue.depth(state.name),
            replicas=len(state.replicas),
            arrival_rate_rps=rate,
            service_time_s=estimate if estimate is not None else 0.0,
        )
        decision = state.autoscaler.evaluate(sample)
        telemetry = self._telemetry
        if telemetry is not None:
            forecast = getattr(state.autoscaler.policy, "forecast_rps", None)
            telemetry.on_tick(state.name, sample, forecast() if callable(forecast) else None)
            if telemetry.progress is not None:
                self._progress()
        if decision.scale_up:
            # The arbiter reserves unmet guarantees only up to each tenant's
            # demand (queued + in flight), so idle tenants lend their share
            # instead of stranding slots.
            demand = {
                other.name: gateway.queue.depth(other.name)
                + (gateway.total_in_flight(other.function) if other.replicas else 0)
                for other in self.states
            }
            granted = self.arbiter.grant(
                state.name, decision.scale_up, self._pool_sizes(), demand
            )
            self.add_replicas(state, granted, now)
        elif decision.scale_down:
            self.reclaim(state, decision.scale_down, now)
        state.timeline.append((now, len(state.replicas)))
        self.dispatch(now)
        self.loop.schedule(
            state.autoscaler.control_interval_s,
            self.tick,
            label="tick:%s" % state.name,
            args=(state,),
        )

    def warm(self) -> None:
        """A replica finished warming: queued work may now be servable."""
        self.dispatch(self.loop.now)

    # -- decision points -------------------------------------------------------------

    def service_for(self, state: _TenantState, request: Request, now: float) -> Optional[float]:
        """The request's service time if started at ``now``; ``None`` to shed it.

        A request with a *hard* deadline that can no longer be met is
        shed — admission control refuses to burn a replica on output
        nobody can use.
        """
        key = (state.spec.mode, request.payload_bytes)
        service = self._service_cache.get(key)
        if service is None:
            service = self._service_cache[key] = self._service_time(key[0], key[1])
        if request.hard and request.deadline_s is not None and now + service > request.deadline_s:
            return None
        return service

    def pick(self, state: _TenantState, now: float) -> int:
        """Where in ``state.free`` a request of ``state`` starts at ``now``; -1 if nowhere.

        The load balancer's choice among the replicas that are ready,
        under their concurrency limit and on a node with a free core: the
        least loaded, first in pool order on a tie — the first such entry
        of the free index, which is ordered that way.  Warmed-up replicas
        join the index here, at the first pick that sees them ready, so any
        event at their ``ready_at`` instant finds them, whether or not it
        fires before their ``warm`` event.
        """
        if state.pending:
            waiting = []
            for replica in state.pending:
                if replica.ready_at <= now:
                    state.index_free(replica)
                else:
                    waiting.append(replica)
            state.pending = waiting
        return self._eligible_after(state.free, -1)

    def _eligible_after(self, free: List[_Replica], after: int) -> int:
        """The first position past ``after`` whose replica's node has a free core, or -1."""
        node_busy = self.node_busy
        cores = self.cores
        for at in range(after + 1, len(free)):
            node = free[at].node
            if node_busy[node] < cores[node]:
                return at
        return -1

    def dispatch(self, now: float) -> None:
        """Move queued requests onto available replicas.

        The gateway's fair queue decides which tenant to try first; a
        tenant whose pool has no eligible replica is passed over (work
        conservation) without losing its place in the fair order.  A
        head request that :meth:`service_for` refuses is shed here.
        """
        if self.halted:
            # A failed region assigns no new work: in-flight requests
            # drain and account normally, anything queued (re-admitted
            # with nowhere alive to go) rejects via its queue timeout.
            return
        queue = self.gateway.queue
        by_tenant = self.by_tenant
        while True:
            for tenant_name in queue.dispatch_order():
                state = by_tenant[tenant_name]
                at = self.pick(state, now)
                if at < 0:
                    continue
                request = queue.peek(tenant_name)
                service = self.service_for(state, request, now)
                if service is None:
                    queue.shed_head(tenant_name)
                    self.resolve(state, request, _SHED)
                else:
                    queue.pop(tenant_name)
                    self.start(state, request, at, service, now)
                break  # re-evaluate fair order after every dispatch or shed
            else:
                return
            if not queue.total_depth():
                return

    def start(
        self,
        state: _TenantState,
        request: Request,
        at: int,
        service: float,
        now: float,
    ) -> None:
        """Serve one request the queue let go, on the replica :meth:`pick` found at ``at``.

        The queued path (:meth:`dispatch`) and the empty-queue path
        (:meth:`admit`) share this body after their queue decision.
        """
        memory = self.memory
        # Give the pipeline's dispatch hooks a say: the hedge stage
        # applies its seeded straggler jitter and decides whether a
        # backup attempt races on a spare replica: the next eligible one.
        plan = None
        if self._pipeline is not None:
            ctx = self._contexts.get((state.name, request.request_id))
            if ctx is not None:
                spare = self._eligible_after(state.free, at)
                plan = self._pipeline.plan_dispatch(
                    ctx, now, service, spare_replica=spare >= 0
                )
                service = plan.service_s
        loser: Optional[_Replica] = None
        if plan is not None and plan.hedged and spare >= 0:
            # The spare sits past the primary and keys above it, so taking
            # it first leaves the primary where the pick found it.
            hedge = self._take(state, spare)
            primary = self._take(state, at)
            primary_done, hedge_offset = plan.completion_offsets()
            if memory is not None:
                # Each attempt slows by its own node's pressure.
                primary_done *= memory.inflation(primary.node)
                hedge_offset *= memory.inflation(hedge.node)
            # First finisher wins; the loser is cancelled (and its
            # replica released) at the winner's completion.
            if now + hedge_offset < now + primary_done:
                replica, loser = hedge, primary
                completion = now + hedge_offset
            else:
                replica, loser = primary, hedge
                completion = now + primary_done
        else:
            replica = self._take(state, at)
            if memory is not None:
                # Memory pressure on the chosen node slows the service;
                # the EWMA below sees the inflated time, so scaling
                # decisions feel the pressure too.
                service = service * memory.inflation(replica.node)
            completion = now + service
        # Feed the measured service time back into the queue's
        # per-tenant EWMA: later enqueues snapshot it as their wfq-cost
        # tag advance, and the autoscaler reads it as the Little's-law
        # service-time estimate.
        self.gateway.queue.record_service_cost(state.name, service)
        # The part of this request's wait actually spent watching its
        # replica cold-start: the overlap of [arrival, dispatch] with
        # the warm-up window, not the whole delay.
        cold_wait = max(0.0, min(replica.cold_s, replica.ready_at - request.arrival_s))
        # _note(completion), inlined: this runs once per request.
        if completion > self.last_event_s:
            self.last_event_s = completion
        self.clock.advance_to(now)
        self.loop.schedule_at(
            completion,
            self.complete,
            label="complete",
            args=(state, request, replica, loser, now, completion, cold_wait),
        )

    def add_replicas(self, state: _TenantState, count: int, now: float) -> None:
        """Register ``count`` replicas, each paying its modelled cold start.

        Replicas never share a VM here: after a scale-to-zero the next
        scale-up must pay the full cold start again, so a cached warm VM
        would flatter whichever runtime got to keep it.
        """
        gateway = self.gateway
        ledger = self.cluster.ledger
        cold_before = state.cold_start_seconds
        for _ in range(count):
            before = ledger.seconds(CostCategory.COLD_START)
            deployed = gateway.register(state.function_spec, replicas=1, charge_cold_start=True)[0]
            cold = ledger.seconds(CostCategory.COLD_START) - before
            state.cold_starts += 1
            state.cold_start_seconds += cold
            replica = _Replica(
                deployed=deployed,
                ready_at=now + cold,
                cold_s=cold,
                idle_since=now + cold,
                rss_mb=state.rss_mb,
                born_s=now,
                node=deployed.node_name,
                serial=next(self._serials),
            )
            # Hold the gateway's load-balancer state: the dispatch loop
            # reads in-flight counts off the replica without name lookups.
            replica.gw_state = gateway.pool_states(state.function)[-1]
            state.replicas.append(replica)
            state.pending.append(replica)
            if self.memory is not None:
                self.memory.allocate(deployed.node_name, state.rss_mb)
            self.loop.schedule_at(now + cold, self.warm, label="warm")
        if self._telemetry is not None and count > 0:
            self._telemetry.on_scale(
                state.name,
                count,
                len(state.replicas),
                now,
                cold_starts=count,
                cold_seconds=state.cold_start_seconds - cold_before,
            )
        if self.memory is not None and count > 0:
            self.evict_over_budget(now)

    def drop_replica(self, state: _TenantState, replica: _Replica, now: float) -> None:
        """Deregister one warm replica (reclaim and eviction share this)."""
        self.gateway.remove_replica(state.function, replica.deployed)
        state.replicas.remove(replica)
        # Only idle replicas are dropped, so it is in the free index
        # (under no load) unless no pick has seen it ready yet.
        if any(other is replica for other in state.pending):
            state.pending = [other for other in state.pending if other is not replica]
        else:
            state.unindex_free(replica, 0)
        if self.memory is not None:
            state.rss_mb_seconds += replica.rss_mb * max(0.0, now - replica.born_s)
            self.memory.free(replica.deployed.node_name, replica.rss_mb)

    def evict_over_budget(self, now: float) -> None:
        """Kill the coldest idle replica on every node over its budget.

        The eviction order is deterministic: per over-budget node, the
        idle warm replica with the smallest ``idle_since`` goes first,
        ties broken by tenant registration order and then replica name.
        A node whose budget excess is pinned by busy replicas stays over
        budget — nothing to kill — and pays through service-time
        inflation instead.  Each eviction is a forced future cold start:
        the tenant's next scale-up pays the full warm-up again.
        """
        memory = self.memory
        while True:
            evicted = False
            for node in sorted(node for node in self.cluster.nodes if memory.over_budget(node)):
                best = None
                for index, state in enumerate(self.states):
                    for replica in state.replicas:
                        if replica.node != node:
                            continue
                        if replica.gw_state.in_flight != 0 or replica.ready_at > now:
                            continue
                        key = (replica.idle_since, index, replica.deployed.name)
                        if best is None or key < best[0]:
                            best = (key, state, replica)
                if best is None:
                    continue
                _, victim_state, victim = best
                self.drop_replica(victim_state, victim, now)
                victim_state.oom_evictions += 1
                self.evictions.append((now, victim_state.name, victim.deployed.name))
                if self._telemetry is not None:
                    self._telemetry.on_oom_evict(
                        victim_state.name, node, victim.deployed.name, now
                    )
                evicted = True
            if not evicted:
                return

    def reclaim(self, state: _TenantState, count: int, now: float) -> None:
        """Remove up to ``count`` warm replicas idle past their keep-alive.

        With the memory model on, each replica's keep-alive window is
        discounted by its node's memory pressure — holding a warm pool
        costs RSS-seconds, and that is only worth paying while the
        node's memory is cheap.
        """
        memory = self.memory
        # ``nsmallest(count, ...)`` is documented equivalent to
        # ``sorted(...)[:count]`` (stable for ties), so the reclaim
        # order is unchanged — it just stops sorting the whole pool to
        # drop a couple of replicas.
        removed = heapq.nsmallest(
            count,
            (
                replica
                for replica in state.replicas
                if replica.gw_state.in_flight == 0
                and replica.ready_at <= now
                and state.autoscaler.reclaimable(
                    now,
                    replica.idle_since,
                    memory_pressure=memory.pressure(replica.node) if memory is not None else 0.0,
                )
            ),
            key=lambda replica: replica.idle_since,
        )
        for replica in removed:
            self.drop_replica(state, replica, now)
        if self._telemetry is not None and removed:
            self._telemetry.on_scale(state.name, -len(removed), len(state.replicas), now)

    # -- accounting ------------------------------------------------------------------

    def resolve(
        self,
        state: _TenantState,
        request: Request,
        outcome: RequestOutcome,
        completion: Optional[float] = None,
        dispatched: Optional[float] = None,
        cold_wait: float = 0.0,
        replica: Optional[_Replica] = None,
    ) -> None:
        """One request reached a terminal outcome: account it exactly once.

        The single funnel for every outcome.  ``completion`` is ``None``
        for a request nothing served; a request a replica served was
        ``dispatched`` to ``replica`` and waited ``cold_wait`` for it to
        warm.  A coalesced follower passes its leader's replica, if any,
        which places it on that replica's node for telemetry.
        The request gets its only record here when something reads one
        (exact mode retains it, telemetry fans it out); in sketch mode its
        scalars are folded, in one :meth:`~repro.obs.streaming.Rollups.fold`,
        into every streaming accumulator it belongs to.  Either way its
        times are checked.  It is counted down and fanned out to the
        telemetry sinks.  Then the pipeline's completion hooks run in
        reverse admission order (cache fills, coalesce fan-out) on the
        outcome and completion instant; any follow-on requests they
        release — parked duplicates resolved by this outcome — recurse
        through the same funnel, so each follower is accounted exactly like
        a request of its own.
        """
        arrival = request.arrival_s
        klass = request.request_class
        deadline = request.deadline_s
        streams = state.streams
        if self._builds_records:
            record = RequestRecord(
                request.request_id,
                state.function,
                outcome,
                arrival,
                dispatched,
                completion,
                "" if dispatched is None else replica.deployed.name,
                cold_wait,
                klass,
                deadline,
            )
            if not streams:
                state.records.append(record)
        else:
            check_times(request.request_id, outcome, arrival, dispatched, completion)
        if streams:
            streams.fold(outcome, arrival, dispatched, completion, cold_wait, klass, deadline)
        self._counter[0] -= 1
        telemetry = self._telemetry
        if telemetry is not None:
            telemetry.on_request(state.name, record, "" if replica is None else replica.node)
            if telemetry.progress is not None:
                self._progress()
        pipeline = self._pipeline
        if pipeline is None:
            return
        ctx = self._contexts.pop((state.name, request.request_id), None)
        if ctx is None:
            return
        for follower, follow_outcome, done in pipeline.complete(
            ctx, outcome, completion, self.loop.now
        ):
            if done is not None:
                self._note(done)
            tenant = self.by_tenant[follower.tenant]
            self.resolve(tenant, follower.request, follow_outcome, done, replica=replica)

    def _take(self, state: _TenantState, at: int) -> _Replica:
        """Route one request to the replica at ``at`` in the free index; mark it busy."""
        free = state.free
        replica = free[at]
        gw_state = replica.gw_state
        self.gateway.acquire_state(state.function, gw_state)
        del free[at]
        del state.free_keys[at]
        if gw_state.in_flight < self.config.per_replica_concurrency:
            state.index_free(replica)
        self.node_busy[replica.node] += 1
        return replica

    def _release(
        self, state: _TenantState, replica: _Replica, dispatched: float, completion: float
    ) -> None:
        """Free one of a request's replicas at its completion."""
        gw_state = replica.gw_state
        self.gateway.release_state(state.function, gw_state)
        self.node_busy[replica.node] -= 1
        in_flight = gw_state.in_flight
        if in_flight < self.config.per_replica_concurrency - 1:
            # Still indexed, one request more loaded: re-key it.
            state.unindex_free(replica, in_flight + 1)
        state.index_free(replica)
        replica.idle_since = completion
        if self.memory is not None:
            # Replica-busy CPU: the loser of a hedge burned the same wall
            # interval before its cancellation, so it pays too.
            state.cpu_seconds += completion - dispatched

    def _note(self, now: float) -> None:
        """Track the run's last event instant; bring the clock to the loop's."""
        if now > self.last_event_s:
            self.last_event_s = now
        self.clock.advance_to(self.loop.now)

    def _progress(self) -> None:
        self._telemetry.on_progress(
            self.loop.now,
            self._total_requests - self._counter[0],
            sum(len(state.replicas) for state in self.states),
        )

    def _pool_sizes(self) -> Dict[str, int]:
        return {state.name: len(state.replicas) for state in self.states}

    # -- driver hooks ----------------------------------------------------------------

    def bootstrap(self, initial_replicas: Dict[str, int]) -> None:
        """Register each tenant's initial pool at t=0 (arbitrated like growth).

        ``initial_replicas`` maps tenant name -> count; a tenant it omits
        starts from zero (the federation homes each pool in one region).
        """
        for state in self.states:
            count = initial_replicas.get(state.name, 0)
            if count:
                self.add_replicas(
                    state,
                    self.arbiter.grant(state.name, count, self._pool_sizes()),
                    0.0,
                )
            state.timeline.append((0.0, len(state.replicas)))

    def start_ticks(self) -> None:
        """Schedule every tenant's first autoscaler control tick."""
        for state in self.states:
            self.loop.schedule(
                state.autoscaler.control_interval_s,
                self.tick,
                label="tick:%s" % state.name,
                args=(state,),
            )

    # -- federation probes -----------------------------------------------------------

    def load(self) -> int:
        """In-flight + queued across every tenant (the least-loaded signal).

        Both terms are running counters the gateway keeps, so the router
        reads a region's load in O(1) however many tenants and replicas
        it holds.
        """
        gateway = self.gateway
        return gateway.queue.total_depth() + gateway.in_flight_total()

    def warm_ready(self, tenant: str, now: float) -> int:
        """Warm replicas of ``tenant`` with spare concurrency at ``now``.

        Read off the free index plus the pending replicas whose warm-up is
        over by ``now``, the current simulated instant (the index only
        ever holds replicas a scan at or before it saw ready).
        """
        state = self.by_tenant[tenant]
        return len(state.free) + sum(1 for replica in state.pending if replica.ready_at <= now)

    def saturated(self, tenant: str) -> bool:
        """Whether the next enqueue for ``tenant`` would be dropped."""
        return self.gateway.queue.depth(tenant) >= self.config.max_queue

    def fail(self, now: float) -> List[Tuple[_TenantState, Request]]:
        """Take this region out: halt its control plane, evacuate its queues.

        In-flight work drains gracefully (completions still fire and
        account normally); queued requests are removed — without touching
        the fair queue's drop/timeout counters, the federation router
        accounts each failover itself — and returned in dispatch order for
        re-placement.  Warm replicas are left registered so the drain can
        finish; no new work is admitted because the router skips failed
        regions and the halted control loop stops scaling.
        """
        self.halted = True
        evacuated: List[Tuple[_TenantState, Request]] = []
        for state in self.states:
            for _, request in self.gateway.queue.drain(state.name):
                evacuated.append((state, request))
        return evacuated

    # -- run finalization ------------------------------------------------------------

    def finalize(self, duration: float) -> None:
        """Settle deferred charges and emit the end-of-run telemetry rollups."""
        # The routing fast path accumulated its per-request ingress
        # overheads instead of charging each one; settle them now, before
        # any ledger rollup is read.
        self.gateway.flush_deferred_ingress()
        if self.memory is not None:
            # Survivors' RSS-seconds: replicas still warm at the end of the
            # run occupied their footprint until the run's last event.
            for state in self.states:
                for replica in state.replicas:
                    state.rss_mb_seconds += replica.rss_mb * max(
                        0.0, duration - replica.born_s
                    )
        self.middleware_stats = (
            self._pipeline.stats() if self._pipeline is not None else {}
        )
        telemetry = self._telemetry
        if telemetry is not None:
            if self.middleware_stats:
                telemetry.observe_middleware(self.middleware_stats)
            telemetry.observe_queue_stats(self.gateway.queue.all_stats())
            telemetry.observe_node_usage(self.node_usage())
            if self.memory is not None:
                telemetry.observe_memory(
                    {
                        state.name: (
                            state.oom_evictions,
                            state.rss_mb_seconds,
                            state.cpu_seconds,
                        )
                        for state in self.states
                    }
                )

    def node_usage(self) -> Dict[str, NodeUsage]:
        """Per-node cost rollups read off the cluster ledger's shards."""
        ledger = self.cluster.ledger
        shards = [ledger.cluster_shard] + list(ledger.shards().values())
        return {
            shard.node_name: NodeUsage(
                node=shard.node_name,
                charges=len(shard),
                total_seconds=shard.total_seconds(),
                cpu_seconds=shard.cpu_seconds(),
                peak_memory_mb=shard.peak_memory_bytes() / MB,
            )
            for shard in shards
        }

    # -- summaries -------------------------------------------------------------------

    def snapshot(self, duration: float) -> MultiTenantSummary:
        """Roll the run up into per-tenant and cluster summaries.

        Also materializes :attr:`records` (per tenant, sorted by request
        id; empty in sketch mode) and :attr:`waterfall` for the driver to
        re-expose.  Each tenant's summary keeps its raw timeline.  Each
        scope's accumulator feeds both its summary and its waterfall.  Exact
        mode folds the records in one pass, tenant by tenant in request-id
        order, each reduced once into its tenant's accumulator and the
        cluster's; a tenant's accumulator is dropped once read, since each
        exact accumulator holds every sample of its scope.
        """
        from repro.obs.streaming import StreamingTrafficStats, fold_records

        states = self.states
        tenants: Dict[str, TrafficSummary] = {}
        waterfall: List[WaterfallRow] = []
        self.records = {}
        declared = sorted({name for state in states for name in state.spec.class_names})
        cluster_stream = self.cluster_stream
        exact = cluster_stream is None
        if exact:
            cluster_stream = StreamingTrafficStats.of_records((), declared)
        for state in states:
            state.records.sort(key=lambda record: record.request_id)
            self.records[state.name] = state.records
            if exact:
                stream = StreamingTrafficStats.of_records((), state.spec.class_names)
                fold_records(state.records, (stream, cluster_stream))
            else:
                stream = state.streams[0]
            tenants[state.name] = rollup(
                state.spec.mode,
                state.spec.pattern_name,
                duration,
                [state],
                state.spec.class_names,
                state.timeline,
                stream,
            )
            waterfall.extend(stream.waterfall(state.name))
            del stream
        cluster = rollup(
            "cluster",
            "multi-tenant",
            duration,
            states,
            declared,
            _merge_timelines([state.timeline for state in states]),
            cluster_stream,
        )
        if len(states) > 1:
            waterfall.extend(cluster_stream.waterfall("cluster"))
        self.waterfall = waterfall
        return MultiTenantSummary(
            fairness=self.fairness.value,
            weights=self.gateway.queue.weights(),
            tenants=tenants,
            cluster=cluster,
            queue_stats=self.gateway.queue.all_stats(),
            nodes=self.node_usage(),
            middleware=self.middleware_stats,
        )

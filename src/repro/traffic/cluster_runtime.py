"""One serving cluster's runtime: the reusable core of the traffic engine.

:class:`ClusterRuntime` owns everything that belongs to *one* cluster —
the :class:`~repro.platform.gateway.IngressGateway` and its
:class:`~repro.platform.gateway.FairQueue`, the per-tenant autoscalers and
the capacity arbiter, the optional :class:`~repro.traffic.memory.NodeMemoryModel`,
the gateway middleware pipeline, the cluster's ledger shards, and all
replica/dispatch bookkeeping — behind a narrow interface:

* :attr:`admit` — one request enters the cluster (queue, shed or drop);
* :attr:`dispatch` — move queued work onto eligible replicas;
* :attr:`complete` — one request's completion event;
* :attr:`tick` — one tenant's autoscaler control interval;
* :meth:`snapshot` — the cluster's :class:`~repro.traffic.tenants.MultiTenantSummary`.

Its one driver is the federation layer (:mod:`repro.traffic.federation`),
which instantiates one runtime per region over one shared
:class:`~repro.sim.engine.EventLoop` behind a global router; the
single-cluster :class:`~repro.traffic.engine.MultiTenantTrafficEngine` is
a one-region federation that returns its region's :meth:`snapshot`.
Every summary — per tenant, per cluster, federation-wide — goes through
:func:`rollup`, which reads one
:class:`~repro.obs.streaming.StreamingTrafficStats` accumulator in either
mode.

The request path is deliberately closure-based: every hot name is bound
once per run into local cells (the million-request regime pays for every
attribute chase).

Dispatch costs O(1) queue work per request and never scans a pool:

* **The free index.**  Each tenant keeps the replicas that are ready and
  under ``per_replica_concurrency``, in pool (registration) order, keyed
  by a registration serial.  Selection takes a replica out when it fills,
  release puts it back, dropping it removes it.  Registered replicas wait
  in a pending list until a scan sees their ``ready_at`` pass — lazily,
  not at their ``warm`` event, so every event at that instant sees them
  exactly as a pool scan would.  A dispatch attempt's candidates are the
  index filtered by free node cores, handed to the same load balancer,
  so the round-robin cursor and the least-loaded tie-break are unchanged.
* **The empty-queue pass-through.**  A request that arrives at an empty
  queue while its tenant has a candidate is the head the next dispatch
  pass would take, so :attr:`admit` serves (or sheds) it directly, and
  the queue accounts it with one
  :meth:`~repro.platform.gateway.FairQueue.pass_through` — the same stats,
  tags and cost snapshot as an enqueue plus a pop, without a heap push, a
  timeout slot or a re-scan.  Only the relative order of events and queue
  entries matters, so skipping those draws leaves every output unchanged.
  Queued work goes through :attr:`dispatch`, which shares everything after
  the queue decision (``start``, or the shed record) with the
  pass-through, and which a completion calls only when work is waiting.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

from repro.experiments.environment import build_pair_setup
from repro.platform.deployment import DeployedFunction
from repro.platform.cluster import Cluster
from repro.platform.function import FunctionSpec
from repro.platform.gateway import IngressGateway
from repro.platform.orchestrator import Orchestrator
from repro.sim.costs import CostModel
from repro.sim.ledger import CostCategory, CostLedger
from repro.traffic.arrivals import Request
from repro.traffic.autoscaler import Autoscaler, LoadSample
from repro.traffic.slo import RequestOutcome, RequestRecord, TrafficSummary
from repro.traffic.tenants import CapacityArbiter, MultiTenantSummary, NodeUsage, TenantSpec
from repro.wasm.runtime import RuntimeKind
from repro.workloads.generators import make_payload

if TYPE_CHECKING:  # pragma: no cover - runtime imports stay lazy to avoid
    # a cycle through repro.obs (whose modules import repro.traffic.slo).
    from repro.gateway.middleware import MiddlewarePipeline, RequestContext
    from repro.obs.spans import WaterfallRow
    from repro.obs.streaming import StreamingTrafficStats
    from repro.obs.telemetry import Telemetry

MB = 1024 * 1024


def calibrated_service_time(
    cache: Dict[Tuple[str, int], float], mode: str, payload_bytes: int, cost_model: CostModel
) -> float:
    """Workflow latency for one (mode, payload size), measured once into ``cache``.

    The measurement invokes the canonical two-function chain through a
    fresh isolated environment (fresh cluster, ledger shards and clock) —
    the path every figure in the reproduction uses — so it depends only on
    its arguments and a cached value never goes stale.
    """
    key = (mode, payload_bytes)
    latency = cache.get(key)
    if latency is None:
        setup = build_pair_setup(mode, cost_model=cost_model)
        payload = make_payload(payload_bytes / MB)
        latency = cache[key] = setup.invoker.invoke(setup.workflow, payload).total_latency_s
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
    truth — the engine samples it through the admission hooks).
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
    #: Registration serial: pool order is registration order, so it keys
    #: the replica's place in its tenant's free index.
    serial: int = 0


@dataclass
class _TenantState:
    """Everything the runtime tracks for one tenant during a run."""

    spec: TenantSpec
    function_spec: FunctionSpec
    autoscaler: Autoscaler
    requests: List[Request]
    replicas: List[_Replica] = field(default_factory=list)
    by_name: Dict[str, _Replica] = field(default_factory=dict)
    #: The free index: replicas that are ready and under their concurrency
    #: limit, in pool order, with their serials in ``free_keys`` (the
    #: parallel list ``bisect`` searches).
    free: List[_Replica] = field(default_factory=list)
    free_keys: List[int] = field(default_factory=list)
    #: Registered replicas not yet seen ready, in pool order; a scan
    #: promotes each into ``free`` once its ``ready_at`` has passed.
    pending: List[_Replica] = field(default_factory=list)
    records: List[RequestRecord] = field(default_factory=list)
    #: Streaming accumulators, built instead of ``records`` in sketch mode
    #: by :func:`attach_streams`: every rollup this tenant's finished
    #: requests fold into, each object once.  The first is the tenant's own.
    streams: Tuple[StreamingTrafficStats, ...] = ()
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


def attach_streams(
    states: Sequence[_TenantState],
    outer_tenants: Optional[Dict[str, StreamingTrafficStats]] = None,
    outer_cluster: Optional[StreamingTrafficStats] = None,
) -> StreamingTrafficStats:
    """Give each tenant the sketch-mode rollups it folds into; return the cluster's.

    Each tenant folds into its own rollup and the cluster's, then — when a
    federation passes them — into its federation-wide tenant rollup
    (``outer_tenants[name]``) and the federation-wide ``outer_cluster``.
    A single classless tenant's cluster rollup would fold exactly the
    tenant's requests into an identical accumulator, so the two are one
    object, folded once per request.
    """
    from repro.obs.streaming import StreamingTrafficStats

    own = [StreamingTrafficStats(declared_classes=state.spec.class_names) for state in states]
    if len(states) == 1 and not states[0].spec.class_names:
        cluster = own[0]
    else:
        cluster = StreamingTrafficStats()
    for state, stream in zip(states, own):
        streams = (stream,) if stream is cluster else (stream, cluster)
        if outer_cluster is not None:
            streams += (outer_tenants[state.name], outer_cluster)
        state.streams = streams
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
    (:meth:`~repro.obs.streaming.StreamingTrafficStats.of_records`, exact
    mode).  The states' counters are summed, which over a single state is
    its own value bit for bit.
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
        service_cache: Dict[Tuple[str, int], float],
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
        self._pipeline = pipeline
        self._telemetry = telemetry

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
        orchestrator = Orchestrator(cluster)
        # The memory model: None unless a node budget was configured, and
        # every use below is guarded on that — a memory-free run touches
        # none of it and stays byte-identical to the pre-model engine.
        memory = None
        if config.memory_enabled:
            from repro.traffic.memory import NodeMemoryModel, default_replica_rss_mb

            memory = NodeMemoryModel(
                budget_mb=config.node_memory_mb,
                knee=config.pressure_knee,
                slope=config.pressure_slope,
                ledger=cluster.ledger,
            )
            for state in self.states:
                state.rss_mb = (
                    state.spec.rss_mb
                    or config.replica_rss_mb
                    or default_replica_rss_mb(state.spec.mode, config.cost_model)
                )
        self.memory = memory
        gateway = IngressGateway(
            orchestrator,
            policy=config.routing,
            fairness=fairness,
            starvation_guard=starvation_guard,
            intra=intra,
            pipeline=pipeline,
        )
        for state in self.states:
            gateway.queue.register_tenant(state.name, state.spec.weight)
        self.gateway = gateway

        states = self.states
        by_tenant = self.by_tenant
        evictions = self.evictions
        #: In-pipeline requests: (tenant, request_id) -> RequestContext.
        #: Parked requests (coalesced followers) live only here and in their
        #: stage until the leader's completion fans them back out.
        contexts: Dict[Tuple[str, int], "RequestContext"] = {}
        self._contexts = contexts
        # Cores bound execution; replica *slots* may oversubscribe them.
        # With oversubscription 1.0 pools partition the cores and queueing
        # order is moot; above 1.0 pools overlap on cores and the fair
        # queue decides who gets a freed core — the contended regime
        # noisy-neighbour scenarios study.
        capacity = sum(cluster.node(name).cores for name in cluster.nodes)
        slots = max(capacity, int(capacity * oversubscription))
        arbiter = CapacityArbiter(slots, {state.name: state.spec.weight for state in states})
        self.arbiter = arbiter
        last_event_s = 0.0
        halted = False
        # Hot-path locals: every name hoisted here saves an attribute chase
        # per request in the million-request regime.
        retain = config.retain_records
        queue = gateway.queue
        per_replica_concurrency = config.per_replica_concurrency
        max_queue = config.max_queue
        queue_timeout_s = config.queue_timeout_s
        cores = {name: cluster.node(name).cores for name in cluster.nodes}
        if not retain:
            from repro.obs.streaming import Observation
        #: Busy requests per node across all tenants, maintained incrementally
        #: (+1 at every replica selection, -1 at every release) instead of
        #: being rebuilt from gateway pool scans on every dispatch pass.
        node_busy = {name: 0 for name in cluster.nodes}
        serials = itertools.count()

        def index_free(state: _TenantState, replica: _Replica) -> None:
            """Put ``replica`` into ``state``'s free index at its pool position."""
            at = bisect_left(state.free_keys, replica.serial)
            state.free_keys.insert(at, replica.serial)
            state.free.insert(at, replica)

        def unindex_free(state: _TenantState, replica: _Replica) -> None:
            at = bisect_left(state.free_keys, replica.serial)
            del state.free_keys[at]
            del state.free[at]

        def candidates(state: _TenantState, now: float) -> List[_Replica]:
            """The replicas a request of ``state`` may start on, in pool order.

            Ready, under their concurrency limit (the free index) and on a
            node with a free core.  Warmed-up replicas join the index here,
            at the first scan that sees them ready, so any event at their
            ``ready_at`` instant finds them, whether or not it fires before
            their ``warm`` event.
            """
            if state.pending:
                waiting = []
                for replica in state.pending:
                    if replica.ready_at <= now:
                        index_free(state, replica)
                    else:
                        waiting.append(replica)
                state.pending = waiting
            return [
                replica
                for replica in state.free
                if node_busy[replica.node] < cores[replica.node]
            ]

        def note(now: float) -> None:
            nonlocal last_event_s
            if now > last_event_s:
                last_event_s = now
            clock.advance_to(loop.now)

        def finish(state: _TenantState, record: RequestRecord, node: str = "") -> None:
            """One request reached a terminal outcome: account it exactly once.

            The single funnel for all four outcome paths — retained as a
            record or reduced once and folded into every streaming
            accumulator it belongs to, counted down, and fanned out to the
            telemetry sinks.
            """
            if retain:
                state.records.append(record)
            else:
                observation = Observation(record)
                for stream in state.streams:
                    stream.fold(observation)
            counter[0] -= 1
            if telemetry is not None:
                telemetry.on_request(state.name, record, node)
                if telemetry.progress is not None:
                    telemetry.on_progress(
                        loop.now,
                        total_requests - counter[0],
                        sum(len(s.replicas) for s in states),
                    )

        def resolve(state: _TenantState, record: RequestRecord, node: str = "") -> None:
            """Account one terminal outcome, then unwind its middleware.

            The pipeline's completion hooks run in reverse admission order
            (cache fills, coalesce fan-out); any follow-on records they
            release — parked duplicates resolved by this outcome — recurse
            through the same funnel, so each follower is accounted exactly
            like a request of its own.
            """
            finish(state, record, node)
            if pipeline is None:
                return
            ctx = contexts.pop((state.name, record.request_id), None)
            if ctx is None:
                return
            for follow_ctx, follow_record in pipeline.complete(ctx, record, loop.now):
                if follow_record.completion_s is not None:
                    note(follow_record.completion_s)
                resolve(by_tenant[follow_ctx.tenant], follow_record, node)

        def pool_sizes() -> Dict[str, int]:
            return {state.name: len(state.replicas) for state in states}

        def demand_snapshot() -> Dict[str, int]:
            """Replicas each tenant's load wants right now (queued + in flight).

            The arbiter reserves unmet guarantees only up to this demand, so
            idle tenants lend their share instead of stranding slots.
            """
            return {
                state.name: gateway.queue.depth(state.name)
                + (gateway.total_in_flight(state.function) if state.replicas else 0)
                for state in states
            }

        def warm_dispatch() -> None:
            """A replica finished warming: queued work may now be servable."""
            dispatch(loop.now)

        def add_replicas(state: _TenantState, count: int, now: float) -> None:
            """Register ``count`` replicas, each paying its modelled cold start.

            Replicas never share a VM here: after a scale-to-zero the next
            scale-up must pay the full cold start again, so a cached warm VM
            would flatter whichever runtime got to keep it.
            """
            cold_before = state.cold_start_seconds
            for _ in range(count):
                before = cluster.ledger.seconds(CostCategory.COLD_START)
                deployed = gateway.register(state.function_spec, replicas=1, charge_cold_start=True)[0]
                cold = cluster.ledger.seconds(CostCategory.COLD_START) - before
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
                    serial=next(serials),
                )
                # Bind the gateway's load-balancer state both ways: the
                # dispatch loop reads in-flight counts off the replica and
                # maps selection results back without any name lookups.
                gw_state = gateway.pool_states(state.function)[-1]
                gw_state.handle = replica
                replica.gw_state = gw_state
                state.replicas.append(replica)
                state.by_name[deployed.name] = replica
                state.pending.append(replica)
                if memory is not None:
                    memory.allocate(deployed.node_name, state.rss_mb)
                loop.schedule_at(now + cold, warm_dispatch, label="warm")
            if telemetry is not None and count > 0:
                telemetry.on_scale(
                    state.name,
                    count,
                    len(state.replicas),
                    now,
                    cold_starts=count,
                    cold_seconds=state.cold_start_seconds - cold_before,
                )
            if memory is not None and count > 0:
                evict_over_budget(now)

        def drop_replica(state: _TenantState, replica: _Replica, now: float) -> None:
            """Deregister one warm replica (reclaim and eviction share this)."""
            gateway.remove_replica(state.function, replica.deployed)
            state.replicas.remove(replica)
            del state.by_name[replica.deployed.name]
            # Only idle replicas are dropped, so it is in the free index
            # unless no scan has seen it ready yet.
            if any(other is replica for other in state.pending):
                state.pending = [other for other in state.pending if other is not replica]
            else:
                unindex_free(state, replica)
            if memory is not None:
                state.rss_mb_seconds += replica.rss_mb * max(0.0, now - replica.born_s)
                memory.free(replica.deployed.node_name, replica.rss_mb)

        def evict_over_budget(now: float) -> None:
            """Kill the coldest idle replica on every node over its budget.

            The eviction order is deterministic: per over-budget node, the
            idle warm replica with the smallest ``idle_since`` goes first,
            ties broken by tenant registration order and then replica name.
            A node whose budget excess is pinned by busy replicas stays over
            budget — nothing to kill — and pays through service-time
            inflation instead.  Each eviction is a forced future cold start:
            the tenant's next scale-up pays the full warm-up again.
            """
            while True:
                evicted = False
                for node in sorted(node for node in cluster.nodes if memory.over_budget(node)):
                    best = None
                    for index, state in enumerate(states):
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
                    drop_replica(victim_state, victim, now)
                    victim_state.oom_evictions += 1
                    evictions.append((now, victim_state.name, victim.deployed.name))
                    if telemetry is not None:
                        telemetry.on_oom_evict(
                            victim_state.name, node, victim.deployed.name, now
                        )
                    evicted = True
                if not evicted:
                    return

        def complete(
            state: _TenantState,
            request: Request,
            replica: _Replica,
            loser: Optional[_Replica],
            dispatched: float,
            completion: float,
            cold_wait: float,
        ) -> None:
            """One request's completion event: account it, free its replicas.

            One shared function fed per-event ``args`` — no closure
            allocated per request.
            """
            record = RequestRecord(
                request_id=request.request_id,
                function=state.function,
                outcome=RequestOutcome.COMPLETED,
                arrival_s=request.arrival_s,
                dispatch_s=dispatched,
                completion_s=completion,
                replica=replica.deployed.name,
                cold_start_wait_s=cold_wait,
                request_class=request.request_class,
                deadline_s=request.deadline_s,
            )
            gateway.release_state(state.function, replica.gw_state)
            node_busy[replica.node] -= 1
            if replica.gw_state.in_flight == per_replica_concurrency - 1:
                index_free(state, replica)
            replica.idle_since = completion
            if memory is not None:
                # Replica-busy CPU: the loser of a hedge burned the same
                # wall interval before its cancellation, so it pays too.
                state.cpu_seconds += record.service_s
            if loser is not None:
                # The hedge's losing attempt is cancelled now: its replica
                # frees the moment the winner answers the client.
                gateway.release_state(state.function, loser.gw_state)
                node_busy[loser.node] -= 1
                if loser.gw_state.in_flight == per_replica_concurrency - 1:
                    index_free(state, loser)
                loser.idle_since = completion
                if memory is not None:
                    state.cpu_seconds += record.service_s
            resolve(state, record, node=replica.node)
            if queue.total_depth():
                dispatch(loop.now)

        def service_for(state: _TenantState, request: Request, now: float) -> Optional[float]:
            """The request's service time if started at ``now``; ``None`` to shed it.

            A request with a *hard* deadline that can no longer be met is
            shed — admission control refuses to burn a replica on output
            nobody can use.
            """
            key = (state.spec.mode, request.payload_bytes)
            service = service_cache.get(key)
            if service is None:
                service = service_time(key[0], key[1])
            if (
                request.hard
                and request.deadline_s is not None
                and now + service > request.deadline_s
            ):
                return None
            return service

        def shed(state: _TenantState, request: Request) -> None:
            """Refuse a hard-deadline request that can no longer finish in time."""
            resolve(
                state,
                RequestRecord(
                    request_id=request.request_id,
                    function=state.function,
                    outcome=RequestOutcome.SHED,
                    arrival_s=request.arrival_s,
                    request_class=request.request_class,
                    deadline_s=request.deadline_s,
                ),
            )

        def start(
            state: _TenantState,
            tenant: str,
            request: Request,
            candidates: List[_Replica],
            service: float,
            now: float,
        ) -> None:
            """Serve one request the queue let go, on one of ``candidates``.

            The queued path (:func:`dispatch`) and the empty-queue path
            (:func:`arrive`) share this body after their queue decision.
            """
            # Give the pipeline's dispatch hooks a say: the hedge stage
            # applies its seeded straggler jitter and decides whether a
            # backup attempt races on a spare replica.
            plan = None
            if pipeline is not None:
                ctx = contexts.get((tenant, request.request_id))
                if ctx is not None:
                    plan = pipeline.plan_dispatch(
                        ctx, now, service, spare_replica=len(candidates) > 1
                    )
                    service = plan.service_s
            loser: Optional[_Replica] = None
            if plan is not None and plan.hedged and len(candidates) > 1:
                primary_gw = gateway.select_replica(
                    state.function,
                    [replica.gw_state for replica in candidates],
                )
                primary = primary_gw.handle
                hedge_gw = gateway.select_replica(
                    state.function,
                    [
                        replica.gw_state
                        for replica in candidates
                        if replica.gw_state is not primary_gw
                    ],
                )
                hedge = hedge_gw.handle
                if primary_gw.in_flight == per_replica_concurrency:
                    unindex_free(state, primary)
                if hedge_gw.in_flight == per_replica_concurrency:
                    unindex_free(state, hedge)
                node_busy[primary.node] += 1
                node_busy[hedge.node] += 1
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
                chosen = gateway.select_replica(
                    state.function,
                    [replica.gw_state for replica in candidates],
                )
                replica = chosen.handle
                if chosen.in_flight == per_replica_concurrency:
                    unindex_free(state, replica)
                node_busy[replica.node] += 1
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
            queue.record_service_cost(tenant, service)
            # The part of this request's wait actually spent watching its
            # replica cold-start: the overlap of [arrival, dispatch] with
            # the warm-up window, not the whole delay.
            cold_wait = max(0.0, min(replica.cold_s, replica.ready_at - request.arrival_s))
            note(completion)
            loop.schedule_at(
                completion,
                complete,
                label="complete",
                args=(state, request, replica, loser, now, completion, cold_wait),
            )

        def dispatch(now: float) -> None:
            """Move queued requests onto available replicas.

            The gateway's fair queue decides which tenant to try first; a
            tenant whose pool has no eligible replica is passed over (work
            conservation) without losing its place in the fair order.  A
            head request that :func:`service_for` refuses is shed here.
            """
            if halted:
                # A failed region assigns no new work: in-flight requests
                # drain and account normally, anything queued (re-admitted
                # with nowhere alive to go) rejects via its queue timeout.
                return
            while True:
                for tenant_name in queue.dispatch_order():
                    state = by_tenant[tenant_name]
                    eligible = candidates(state, now)
                    if not eligible:
                        continue
                    request = queue.peek(tenant_name)
                    service = service_for(state, request, now)
                    if service is None:
                        queue.shed_head(tenant_name)
                        shed(state, request)
                    else:
                        queue.pop(tenant_name)
                        start(state, tenant_name, request, eligible, service, now)
                    break  # re-evaluate fair order after every dispatch or shed
                else:
                    return
                if not queue.total_depth():
                    return

        def arrive(state: _TenantState, request: Request) -> None:
            note(request.arrival_s)
            state.arrivals_since_tick += 1
            priority = request.priority
            deadline = request.deadline_s
            if pipeline is not None:
                from repro.gateway.middleware import AdmitAction

                ctx = pipeline.context(state.name, request)
                decision = pipeline.admit(ctx, request.arrival_s)
                contexts[(state.name, request.request_id)] = ctx
                if decision.action is AdmitAction.SHORT_CIRCUIT:
                    # Terminal at the gateway: a cache hit (served, with a
                    # completion instant) or a refusal (rate limit / auth).
                    completion = decision.completion_s
                    if completion is not None:
                        note(completion)
                    resolve(
                        state,
                        RequestRecord(
                            request_id=request.request_id,
                            function=state.function,
                            outcome=decision.outcome,
                            arrival_s=request.arrival_s,
                            completion_s=completion,
                            request_class=request.request_class,
                            deadline_s=request.deadline_s,
                        ),
                    )
                    return
                if decision.action is AdmitAction.PARK:
                    # Parked behind an identical in-flight request: no queue
                    # slot, no timeout event — the leader's completion (or
                    # failure) resolves it through the pipeline unwind.
                    return
                # Transformed requests dispatch under their overridden keys.
                priority = ctx.data.get("priority", priority)
                deadline = ctx.data.get("deadline_s", deadline)
            if not halted and not queue.total_depth():
                # Nothing waits ahead of this request: if a replica is free
                # it is the head a dispatch pass would take, so serve it
                # straight away — the queue accounts it as an enqueue plus
                # a pop (or shed) without ever holding it.
                now = loop.now
                eligible = candidates(state, now)
                if eligible:
                    service = service_for(state, request, now)
                    if service is None:
                        queue.pass_through(state.name, shed=True)
                        shed(state, request)
                    else:
                        queue.pass_through(state.name)
                        start(state, state.name, request, eligible, service, now)
                    return
            admitted = queue.enqueue(
                state.name,
                request.request_id,
                request,
                limit=max_queue,
                priority=priority,
                deadline=deadline,
            )
            if not admitted:
                resolve(
                    state,
                    RequestRecord(
                        request_id=request.request_id,
                        function=state.function,
                        outcome=RequestOutcome.DROPPED,
                        arrival_s=request.arrival_s,
                        request_class=request.request_class,
                        deadline_s=request.deadline_s,
                    ),
                )
                return
            # The timeout event is only materialized if the request is still
            # waiting after the dispatch pass.  Its tie-break slot is
            # reserved *before* dispatching, so when it is scheduled it
            # sorts exactly where an eagerly scheduled timeout would have.
            timeout_order = loop.reserve_orders(1)
            dispatch(loop.now)
            if queue.is_queued(state.name, request.request_id):
                timeout_at = request.arrival_s + queue_timeout_s
                if timeout_at < loop.now:
                    # A request handed over a WAN link arrives with part of
                    # its patience already spent; an exhausted budget times
                    # out immediately rather than scheduling into the past.
                    timeout_at = loop.now
                loop.schedule_at(
                    timeout_at,
                    expire,
                    label="timeout",
                    args=(state, request),
                    order=timeout_order,
                )

        def expire(state: _TenantState, request: Request) -> None:
            """Time out a request still waiting when its patience ran out."""
            if not queue.cancel(state.name, request.request_id):
                return
            resolve(
                state,
                RequestRecord(
                    request_id=request.request_id,
                    function=state.function,
                    outcome=RequestOutcome.TIMED_OUT,
                    arrival_s=request.arrival_s,
                    request_class=request.request_class,
                    deadline_s=request.deadline_s,
                ),
            )
            note(loop.now)

        def control_tick(state: _TenantState) -> None:
            if halted or counter[0] <= 0:
                return
            now = loop.now
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
            if telemetry is not None:
                forecast = getattr(state.autoscaler.policy, "forecast_rps", None)
                telemetry.on_tick(
                    state.name, sample, forecast() if callable(forecast) else None
                )
                if telemetry.progress is not None:
                    telemetry.on_progress(
                        now,
                        total_requests - counter[0],
                        sum(len(s.replicas) for s in states),
                    )
            if decision.scale_up:
                add_replicas(
                    state,
                    arbiter.grant(
                        state.name, decision.scale_up, pool_sizes(), demand_snapshot()
                    ),
                    now,
                )
            elif decision.scale_down:
                reclaim(state, decision.scale_down, now)
            state.timeline.append((now, len(state.replicas)))
            dispatch(now)
            loop.schedule(
                state.autoscaler.control_interval_s,
                lambda: control_tick(state),
                label="tick:%s" % state.name,
            )

        def reclaim(state: _TenantState, count: int, now: float) -> None:
            """Remove up to ``count`` warm replicas idle past their keep-alive.

            With the memory model on, each replica's keep-alive window is
            discounted by its node's memory pressure — holding a warm pool
            costs RSS-seconds, and that is only worth paying while the
            node's memory is cheap.
            """
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
                        memory_pressure=(
                            memory.pressure(replica.node)
                            if memory is not None
                            else 0.0
                        ),
                    )
                ),
                key=lambda replica: replica.idle_since,
            )
            for replica in removed:
                drop_replica(state, replica, now)
            if telemetry is not None and removed:
                telemetry.on_scale(state.name, -len(removed), len(state.replicas), now)

        def halt() -> None:
            nonlocal halted
            halted = True

        def last_event() -> float:
            return last_event_s

        # The narrow public interface.
        self.admit = arrive
        self.dispatch = dispatch
        self.complete = complete
        #: Read-only test hook: ``candidates(state, now)`` is the replica
        #: list a dispatch attempt for ``state`` at ``now`` would offer the
        #: load balancer (it may promote warmed-up replicas into the index,
        #: as any scan does).
        self.candidates = candidates
        self.tick = control_tick
        self.add_replicas = add_replicas
        self._halt = halt
        self.halted = False
        self._last_event = last_event
        self._pool_sizes = pool_sizes

    # -- driver hooks ----------------------------------------------------------------

    def bootstrap(self, initial_replicas: Dict[str, int], now: float = 0.0) -> None:
        """Register each tenant's initial pool (arbitrated like growth).

        ``initial_replicas`` maps tenant name -> count; a tenant it omits
        starts from zero (the federation homes each pool in one region).
        """
        for state in self.states:
            count = initial_replicas.get(state.name, 0)
            if count:
                self.add_replicas(
                    state,
                    self.arbiter.grant(state.name, count, self._pool_sizes()),
                    now,
                )
            state.timeline.append((now, len(state.replicas)))

    def start_ticks(self) -> None:
        """Schedule every tenant's first autoscaler control tick."""
        for state in self.states:
            self.loop.schedule(
                state.autoscaler.control_interval_s,
                lambda state=state: self.tick(state),
                label="tick:%s" % state.name,
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
        self._halt()
        self.halted = True
        evacuated: List[Tuple[_TenantState, Request]] = []
        for state in self.states:
            for _, request in self.gateway.queue.drain(state.name):
                evacuated.append((state, request))
        return evacuated

    # -- run finalization ------------------------------------------------------------

    @property
    def last_event_s(self) -> float:
        return self._last_event()

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
        scope's accumulator feeds both its summary and its waterfall; exact
        mode folds one scope's records at a time, since each exact
        accumulator holds every sample of its scope.
        """
        from repro.obs.streaming import StreamingTrafficStats

        states = self.states
        tenants: Dict[str, TrafficSummary] = {}
        waterfall: List[WaterfallRow] = []
        self.records = {}
        for state in states:
            state.records.sort(key=lambda record: record.request_id)
            self.records[state.name] = state.records
            stream = (
                state.streams[0]
                if state.streams
                else StreamingTrafficStats.of_records(state.records, state.spec.class_names)
            )
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
        declared = sorted({name for state in states for name in state.spec.class_names})
        stream = self.cluster_stream
        if stream is None:
            stream = StreamingTrafficStats.of_records(
                (record for state in states for record in state.records), declared
            )
        cluster = rollup(
            "cluster",
            "multi-tenant",
            duration,
            states,
            declared,
            _merge_timelines([state.timeline for state in states]),
            stream,
        )
        if len(states) > 1:
            waterfall.extend(stream.waterfall("cluster"))
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

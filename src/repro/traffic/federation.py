"""Multi-region federation: N clusters behind one global front door.

The single-cluster engine (:mod:`repro.traffic.engine`) drives one
:class:`~repro.traffic.cluster_runtime.ClusterRuntime`; this module drives
*several* over one shared :class:`~repro.sim.engine.EventLoop`
and one :class:`~repro.sim.clock.SimClock`, which is what makes the
federation a single coherent simulation: cross-region placements, WAN
transfers and regional failures interleave with every cluster's dispatch
and scaling events in exact time order, and a seeded run is byte-for-byte
reproducible.

The pieces:

* :class:`ClusterSpec` — one region's shape (name, nodes, memory budget,
  initial pool, which tenants call it home);
* the WAN — a full-mesh :class:`~repro.net.topology.Topology` with one
  node per region, so a cross-region placement pays the link's seeded
  propagation plus payload transmission time before it may even queue;
* :class:`GlobalRouter` — per-request placement with pluggable policies
  (``locality``, ``least-loaded``, ``warmth``, ``data-gravity``,
  ``random``), deterministic tie-breaks (home region first, then cluster
  registration order) and spillover whenever the preferred region is
  saturated or failed;
* :class:`FederatedTrafficEngine` — the driver: it generates the global
  arrival streams, routes each request, delivers it (possibly over the
  WAN), injects regional failures (``fail_at``), and rolls every region up
  into one :class:`FederationSummary`.

Failure semantics: a failed region halts its control plane and admits no
new work; its in-flight requests drain gracefully (completions still fire
and account normally) while its *queued* requests are evacuated and
re-routed to surviving regions — each re-placement pays the WAN hop out of
the failed region and counts as a failover.  A request already in WAN
transit toward a region that dies before it lands is bounced onward the
same way.

A federation of exactly one cluster whose region name matches the engine's
node prefix (``"traffic"``) reproduces the unfederated engine request for
request: same events, same tie-breaks, same floats (a property test pins
this).
"""

from __future__ import annotations

import json
import random

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.net.topology import Topology
from repro.platform.gateway import FairnessPolicy, IntraTenantOrder
from repro.sim.clock import SimClock
from repro.sim.engine import EventLoop
from repro.traffic.arrivals import Request
from repro.traffic.autoscaler import Autoscaler, TargetConcurrencyPolicy
from repro.traffic.cluster_runtime import (
    ClusterRuntime,
    _measure_service_time,
    _merge_timelines,
    _spec_for_mode,
    _TenantState,
)
from repro.traffic.engine import (
    TrafficConfig,
    TrafficEngineError,
    schedule_arrivals,
    validate_tenants,
)
from repro.traffic.slo import RequestRecord, TrafficSummary, summarize
from repro.traffic.tenants import MultiTenantSummary, TenantSpec

if TYPE_CHECKING:  # pragma: no cover - lazy to avoid the obs import cycle
    from repro.gateway.middleware import MiddlewarePipeline
    from repro.obs.telemetry import Telemetry


class FederationError(TrafficEngineError):
    """Raised for invalid federation configurations."""


#: Placement policies :class:`GlobalRouter` understands.
ROUTER_POLICIES: Tuple[str, ...] = (
    "locality",
    "least-loaded",
    "warmth",
    "data-gravity",
    "random",
)


@dataclass(frozen=True)
class ClusterSpec:
    """One region of the federation: a cluster's shape and its home tenants."""

    #: Region name; becomes the cluster's node prefix (``region-0`` ...) and
    #: its ledger shard name, and labels every per-region output.
    region: str
    #: Nodes in this region's serving cluster.
    nodes: int = 4
    #: Per-node RSS budget in MB (``None`` = the base config's budget).
    node_memory_mb: Optional[float] = None
    #: Initial replicas per *home* tenant (``None`` = the base config's).
    initial_replicas: Optional[int] = None
    #: Per-replica concurrency override (``None`` = the base config's).
    per_replica_concurrency: Optional[int] = None
    #: Tenants homed here: their clients enter the federation at this
    #: region's front door and their initial pools boot here.  Tenants
    #: listed nowhere are homed in the first cluster.
    tenants: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.region:
            raise FederationError("cluster region name must be non-empty")
        if self.nodes < 1:
            raise FederationError("region %r needs at least one node" % self.region)
        if self.node_memory_mb is not None and self.node_memory_mb < 0:
            raise FederationError("region %r: node_memory_mb must be non-negative" % self.region)
        if self.initial_replicas is not None and self.initial_replicas < 0:
            raise FederationError("region %r: initial_replicas must be non-negative" % self.region)
        if self.per_replica_concurrency is not None and self.per_replica_concurrency < 1:
            raise FederationError(
                "region %r: per_replica_concurrency must be >= 1" % self.region
            )

    def config_for(self, base: TrafficConfig) -> TrafficConfig:
        """The base run config specialized to this region's shape."""
        overrides: Dict[str, object] = {"nodes": self.nodes}
        if self.node_memory_mb is not None:
            overrides["node_memory_mb"] = self.node_memory_mb
        if self.initial_replicas is not None:
            overrides["initial_replicas"] = self.initial_replicas
        if self.per_replica_concurrency is not None:
            overrides["per_replica_concurrency"] = self.per_replica_concurrency
        return replace(base, **overrides)


#: Recognised keys of one cluster object in a ``--clusters`` config.
_CLUSTER_KEYS = frozenset(
    {"region", "nodes", "memory_mb", "initial_replicas", "concurrency", "tenants"}
)


def parse_clusters(source) -> Tuple[ClusterSpec, ...]:
    """Parse the ``repro traffic --clusters`` format.

    ``source`` is a JSON array (or an already-decoded list) of objects::

        [{"region": "us-east", "nodes": 4, "memory_mb": 512,
          "initial_replicas": 2, "concurrency": 1, "tenants": ["checkout"]}]

    Only ``region`` is required; unknown keys are rejected so typos fail
    loudly instead of silently running the default shape.
    """
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except ValueError as exc:
            raise FederationError("invalid --clusters JSON: %s" % exc) from exc
    if not isinstance(source, list) or not source:
        raise FederationError("--clusters must be a non-empty JSON array of objects")
    specs: List[ClusterSpec] = []
    for entry in source:
        if not isinstance(entry, dict):
            raise FederationError("each cluster must be a JSON object, got %r" % (entry,))
        unknown = set(entry) - _CLUSTER_KEYS
        if unknown:
            raise FederationError(
                "unknown cluster keys %s (known: %s)"
                % (sorted(unknown), ", ".join(sorted(_CLUSTER_KEYS)))
            )
        if "region" not in entry:
            raise FederationError("each cluster needs a 'region' name")
        specs.append(
            ClusterSpec(
                region=entry["region"],
                nodes=int(entry.get("nodes", 4)),
                node_memory_mb=(
                    float(entry["memory_mb"]) if "memory_mb" in entry else None
                ),
                initial_replicas=(
                    int(entry["initial_replicas"]) if "initial_replicas" in entry else None
                ),
                per_replica_concurrency=(
                    int(entry["concurrency"]) if "concurrency" in entry else None
                ),
                tenants=tuple(entry.get("tenants", ())),
            )
        )
    return tuple(specs)


def parse_fail_spec(source: str) -> Tuple[str, float]:
    """Parse one ``--fail-region name@seconds`` spec."""
    name, sep, at = source.partition("@")
    if not sep or not name:
        raise FederationError(
            "--fail-region wants 'region@seconds', got %r" % source
        )
    try:
        time_s = float(at)
    except ValueError as exc:
        raise FederationError(
            "--fail-region %r: %r is not a time in seconds" % (source, at)
        ) from exc
    if time_s < 0:
        raise FederationError("--fail-region %r: time must be non-negative" % source)
    return name, time_s


@dataclass
class RouterStats:
    """What the global router did over one run."""

    policy: str
    #: Requests placed into each region (first placement, not failovers).
    placements: Dict[str, int] = field(default_factory=dict)
    #: Placements into the tenant's home region.
    local: int = 0
    #: Placements into any other region (includes spillovers).
    remote: int = 0
    #: Remote placements forced by an unavailable home (saturated/failed).
    spillovers: int = 0
    #: Requests re-routed out of a failed region (evacuations + bounces).
    failovers: int = 0
    #: WAN time paid by all cross-region transfers, in seconds.
    wan_seconds: float = 0.0
    #: Payload bytes shipped across regions.
    wan_bytes: int = 0


class GlobalRouter:
    """Per-request placement across the federation's regions.

    Every decision is deterministic: candidate regions are scanned in
    cluster registration order, the tenant's home region wins ties, and
    the only randomness (the ``random`` baseline policy) draws from its
    own seeded generator.  Failed regions are always skipped; saturated
    regions (next enqueue would be dropped) are skipped while any
    non-saturated candidate exists — that skip *is* the spillover.
    """

    def __init__(
        self,
        policy: str,
        regions: Sequence[str],
        home: Mapping[str, str],
        runtimes: Mapping[str, ClusterRuntime],
        seed: int = 0,
    ) -> None:
        if policy not in ROUTER_POLICIES:
            raise FederationError(
                "unknown router policy %r (known: %s)" % (policy, ", ".join(ROUTER_POLICIES))
            )
        self.policy = policy
        self._regions = list(regions)
        self._index = {region: index for index, region in enumerate(self._regions)}
        self._home = dict(home)
        self._runtimes = runtimes
        self._rng = random.Random(seed)
        #: data-gravity stickiness: (tenant, payload key) -> region.
        self._sticky: Dict[Tuple[str, int], str] = {}
        self.stats = RouterStats(
            policy=policy, placements={region: 0 for region in self._regions}
        )

    def _choose(
        self, tenant: str, request: Request, now: float, exclude: Optional[str]
    ) -> Optional[str]:
        runtimes = self._runtimes
        candidates = [
            region
            for region in self._regions
            if region != exclude and not runtimes[region].halted
        ]
        if not candidates:
            return None
        home = self._home[tenant]
        unsaturated = [
            region for region in candidates if not runtimes[region].saturated(tenant)
        ]
        pool = unsaturated or candidates
        policy = self.policy
        if policy == "locality":
            return home if home in pool else pool[0]
        if policy == "least-loaded":
            return min(
                pool,
                key=lambda region: (
                    runtimes[region].load(),
                    0 if region == home else 1,
                    self._index[region],
                ),
            )
        if policy == "warmth":
            return min(
                pool,
                key=lambda region: (
                    -runtimes[region].warm_ready(tenant, now),
                    0 if region == home else 1,
                    self._index[region],
                ),
            )
        if policy == "data-gravity":
            key = (tenant, request.payload_bytes)
            stuck = self._sticky.get(key)
            if stuck is not None and stuck in pool:
                return stuck
            chosen = home if home in pool else pool[0]
            self._sticky[key] = chosen
            return chosen
        # "random": the placement baseline the locality demo beats.
        return pool[self._rng.randrange(len(pool))]

    def place(self, tenant: str, request: Request, now: float) -> Optional[str]:
        """First placement of one request; accounts the decision."""
        region = self._choose(tenant, request, now, exclude=None)
        if region is None:
            return None
        home = self._home[tenant]
        stats = self.stats
        stats.placements[region] += 1
        if region == home:
            stats.local += 1
        else:
            stats.remote += 1
            runtime = self._runtimes[home]
            if runtime.halted or runtime.saturated(tenant):
                stats.spillovers += 1
        return region

    def reroute(
        self, tenant: str, request: Request, now: float, exclude: str
    ) -> Optional[str]:
        """Re-placement out of a failed region; accounted as a failover."""
        region = self._choose(tenant, request, now, exclude=exclude)
        self.stats.failovers += 1
        return region


@dataclass
class FederationSummary:
    """Everything one federated run produced."""

    fairness: str
    #: The router's policy and placement/WAN accounting.
    router: RouterStats
    #: Per-region rollups, keyed by region name (each a full
    #: :class:`~repro.traffic.tenants.MultiTenantSummary`).
    regions: Dict[str, MultiTenantSummary]
    #: Federation-wide per-tenant rollups (across every region).
    tenants: Dict[str, TrafficSummary]
    #: Federation-wide aggregate over all tenants and regions.
    cluster: TrafficSummary
    #: Regions failed during the run (injection order).
    failed_regions: Tuple[str, ...] = ()
    #: Tenant name -> home region (where its clients enter the federation).
    home: Dict[str, str] = field(default_factory=dict)

    def region(self, name: str) -> MultiTenantSummary:
        if name not in self.regions:
            raise FederationError(
                "no region %r in this run (have: %s)"
                % (name, ", ".join(sorted(self.regions)))
            )
        return self.regions[name]


class FederatedTrafficEngine:
    """Drives every tenant's stream across N WAN-linked regional clusters."""

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        clusters: Sequence[ClusterSpec],
        config: Optional[TrafficConfig] = None,
        fairness: FairnessPolicy = FairnessPolicy.WFQ,
        starvation_guard: int = 32,
        autoscaler_factory: Optional[Callable[[], Autoscaler]] = None,
        oversubscription: float = 2.0,
        intra: IntraTenantOrder = IntraTenantOrder.FIFO,
        router: str = "locality",
        router_seed: int = 0,
        wan_rtt_s: Optional[float] = None,
        wan_bandwidth_Bps: Optional[float] = None,
        telemetry_factory: Optional[Callable[[str], "Telemetry"]] = None,
        middleware_factory: Optional[Callable[[str], "MiddlewarePipeline"]] = None,
        fail_at: Optional[Mapping[str, float]] = None,
        service_cache: Optional[Dict[Tuple[str, int], float]] = None,
    ) -> None:
        names = validate_tenants(tenants, FederationError)
        if not clusters:
            raise FederationError("need at least one cluster")
        regions = [cluster.region for cluster in clusters]
        if len(set(regions)) != len(regions):
            raise FederationError("region names must be unique, got %s" % regions)
        known = set(names)
        homed: Dict[str, str] = {}
        for cluster in clusters:
            for tenant_name in cluster.tenants:
                if tenant_name not in known:
                    raise FederationError(
                        "region %r homes unknown tenant %r" % (cluster.region, tenant_name)
                    )
                if tenant_name in homed:
                    raise FederationError(
                        "tenant %r is homed in both %r and %r"
                        % (tenant_name, homed[tenant_name], cluster.region)
                    )
                homed[tenant_name] = cluster.region
        # Tenants listed nowhere are homed in the first cluster.
        for name in names:
            homed.setdefault(name, regions[0])
        if router not in ROUTER_POLICIES:
            raise FederationError(
                "unknown router policy %r (known: %s)" % (router, ", ".join(ROUTER_POLICIES))
            )
        if fail_at:
            unknown_regions = set(fail_at) - set(regions)
            if unknown_regions:
                raise FederationError(
                    "--fail-region names unknown regions: %s" % sorted(unknown_regions)
                )

        self.tenants = list(tenants)
        self.clusters = list(clusters)
        self.regions = regions
        self.home = homed
        self.config = config or TrafficConfig()
        self.fairness = fairness
        self.starvation_guard = starvation_guard
        self.intra = intra
        self.oversubscription = oversubscription
        self.autoscaler_factory = autoscaler_factory or (
            lambda: Autoscaler(TargetConcurrencyPolicy(1.0))
        )
        self.router_policy = router
        self.router_seed = router_seed
        self.wan_rtt_s = wan_rtt_s
        self.wan_bandwidth_Bps = wan_bandwidth_Bps
        self.telemetry_factory = telemetry_factory
        self.middleware_factory = middleware_factory
        self.fail_at = dict(fail_at or {})
        self.clock = SimClock()
        self._service_cache: Dict[Tuple[str, int], float] = (
            service_cache if service_cache is not None else {}
        )
        #: Per-region per-tenant records of the last run (retained mode).
        self.records: Dict[str, Dict[str, List[RequestRecord]]] = {}
        #: Per-region OOM evictions of the last run.
        self.evictions: Dict[str, List[Tuple[float, str, str]]] = {}
        #: The router of the last run (placement + WAN accounting).
        self.router: Optional[GlobalRouter] = None
        #: Per-region telemetry sinks of the last run (for the CLI to drain).
        self.telemetries: Dict[str, "Telemetry"] = {}

    # -- service times ---------------------------------------------------------------

    def _service_time(self, mode: str, payload_bytes: int) -> float:
        key = (mode, payload_bytes)
        cached = self._service_cache.get(key)
        if cached is None:
            cached = _measure_service_time(mode, payload_bytes, self.config.cost_model)
            self._service_cache[key] = cached
        return cached

    # -- the run ---------------------------------------------------------------------

    def run(self) -> FederationSummary:
        """Route, deliver, execute and account every tenant's stream."""
        streams: Dict[str, List[Request]] = {
            tenant.name: tenant.generate() for tenant in self.tenants
        }
        total_requests = sum(len(stream) for stream in streams.values())
        if total_requests == 0:
            raise FederationError("cannot run with zero requests across all tenants")
        retain = self.config.retain_records

        self.clock.reset()
        loop = EventLoop()
        counter = [total_requests]
        regions = self.regions
        single_region = len(regions) == 1

        # Global (cross-region) rollup accumulators for sketch mode, fed by
        # each runtime's on_record hook; record.function keys the tenant.
        tenant_streams = cluster_stream = None
        by_function = {tenant.function_name: tenant.name for tenant in self.tenants}
        observers: Dict[str, Optional[Callable[[RequestRecord], None]]] = {
            region: None for region in regions
        }
        if not retain:
            from repro.obs.streaming import StreamingTrafficStats

            tenant_streams = {
                tenant.name: StreamingTrafficStats(declared_classes=tenant.class_names)
                for tenant in self.tenants
            }
            cluster_stream = StreamingTrafficStats()

            def observe_global(record: RequestRecord) -> None:
                tenant_streams[by_function[record.function]].observe(record)
                cluster_stream.observe(record)

            observers = {region: observe_global for region in regions}

        # One runtime per region, all over the shared clock and loop.
        runtimes: Dict[str, ClusterRuntime] = {}
        region_states: Dict[str, List[_TenantState]] = {}
        self.telemetries = {}
        for spec in self.clusters:
            region = spec.region
            cfg = spec.config_for(self.config)
            states = [
                _TenantState(
                    spec=tenant,
                    function_spec=_spec_for_mode(
                        tenant.mode, tenant.function_name, tenant.name
                    ),
                    autoscaler=self.autoscaler_factory(),
                    requests=[],  # the driver owns the global streams
                )
                for tenant in self.tenants
            ]
            region_cluster_stream = None
            if not retain:
                from repro.obs.streaming import StreamingTrafficStats

                for state in states:
                    state.stream = StreamingTrafficStats(
                        declared_classes=state.spec.class_names
                    )
                region_cluster_stream = StreamingTrafficStats()
            telemetry = (
                self.telemetry_factory(region) if self.telemetry_factory else None
            )
            if telemetry is not None:
                self.telemetries[region] = telemetry
            pipeline = (
                self.middleware_factory(region) if self.middleware_factory else None
            )
            runtimes[region] = ClusterRuntime(
                states=states,
                config=cfg,
                fairness=self.fairness,
                starvation_guard=self.starvation_guard,
                intra=self.intra,
                oversubscription=self.oversubscription,
                clock=self.clock,
                loop=loop,
                service_time=self._service_time,
                service_cache=self._service_cache,
                counter=counter,
                total_requests=total_requests,
                telemetry=telemetry,
                pipeline=pipeline,
                cluster_stream=region_cluster_stream,
                region=region,
                node_prefix=region,
                on_record=observers[region],
            )
            region_states[region] = states
        self.evictions = {region: runtimes[region].evictions for region in regions}

        # The WAN: a full mesh, one topology node per region.  A federation
        # of one region never crosses it and never builds a link.
        topology = Topology(cost_model=self.config.cost_model)
        for region in regions:
            topology.add_node(region)
        for left_index, left in enumerate(regions):
            for right in regions[left_index + 1 :]:
                topology.connect(
                    left,
                    right,
                    bandwidth=self.wan_bandwidth_Bps,
                    rtt=self.wan_rtt_s,
                )

        router = GlobalRouter(
            self.router_policy,
            regions,
            self.home,
            runtimes,
            seed=self.router_seed,
        )
        self.router = router
        stats = router.stats
        home = self.home
        failed_regions: List[str] = []

        last_arrival = max(
            (request.arrival_s for stream in streams.values() for request in stream),
            default=0.0,
        )
        for region, telemetry in self.telemetries.items():
            telemetry.on_run_start(total_requests, duration_hint_s=last_arrival)

        # Bootstrap each region before any arrival: home tenants get their
        # initial pool where their clients enter; everyone else scales from
        # zero on demand (warmth/locality make that visible).
        for spec in self.clusters:
            region = spec.region
            initial = (
                spec.initial_replicas
                if spec.initial_replicas is not None
                else self.config.initial_replicas
            )
            runtimes[region].bootstrap(
                {
                    tenant.name: (initial if home[tenant.name] == region else 0)
                    for tenant in self.tenants
                }
            )

        def deliver(region: str, tenant_name: str, request: Request) -> None:
            """Land one request in ``region`` (possibly after WAN transit).

            A region that failed while the request was in flight bounces it
            onward: one more WAN hop out of the dead region, one more
            failover.  With every region down it lands anyway — the dead
            region's queue timeout is what finally rejects it.
            """
            runtime = runtimes[region]
            if runtime.halted:
                target = router.reroute(tenant_name, request, loop.now, exclude=region)
                if target is not None and target != region:
                    hop = topology.link_between(region, target)
                    delay = hop.transfer_seconds(request.payload_bytes)
                    stats.wan_seconds += delay
                    stats.wan_bytes += request.payload_bytes
                    loop.schedule_at(
                        loop.now + delay,
                        deliver,
                        label="wan",
                        args=(target, tenant_name, request),
                    )
                    return
            runtime.admit(runtime.by_tenant[tenant_name], request)

        def route(tenant_name: str, request: Request) -> None:
            """The front door: place one arrival and start its delivery."""
            if single_region:
                # One region: no routing decision exists and no WAN is
                # crossed — the fast path is exactly the engine's admit.
                deliver(regions[0], tenant_name, request)
                return
            now = loop.now
            region = router.place(tenant_name, request, now)
            origin = home[tenant_name]
            if region is None:
                # Every region is down; land at home and let its queue
                # timeout account the rejection.
                stats.placements[origin] += 1
                deliver(origin, tenant_name, request)
                return
            if region == origin:
                deliver(region, tenant_name, request)
                return
            link = topology.link_between(origin, region)
            delay = link.transfer_seconds(request.payload_bytes)
            stats.wan_seconds += delay
            stats.wan_bytes += request.payload_bytes
            loop.schedule_at(
                now + delay, deliver, label="wan", args=(region, tenant_name, request)
            )

        def fail_region(region: str) -> None:
            runtime = runtimes[region]
            if runtime.halted:
                return
            failed_regions.append(region)
            now = loop.now
            for state, request in runtime.fail(now):
                target = router.reroute(state.name, request, now, exclude=region)
                if target is None or target == region:
                    # Nowhere alive to go: re-admit locally; the queue
                    # timeout (patience already spent) rejects it.
                    runtime.admit(state, request)
                    continue
                hop = topology.link_between(region, target)
                delay = hop.transfer_seconds(request.payload_bytes)
                stats.wan_seconds += delay
                stats.wan_bytes += request.payload_bytes
                loop.schedule_at(
                    now + delay,
                    deliver,
                    label="wan",
                    args=(target, state.name, request),
                )

        # The driver-side arrival merge reuses the engine's scheduling
        # discipline verbatim (reserved order slots, lazy chaining); its
        # admit hook is the router instead of a cluster.
        route_states = [
            _RouteState(name=tenant.name, requests=streams[tenant.name])
            for tenant in self.tenants
        ]
        schedule_arrivals(
            loop,
            route_states,
            lambda route_state, request: route(route_state.name, request),
            total_requests,
        )
        for region, time_s in sorted(self.fail_at.items(), key=lambda item: item[1]):
            loop.schedule_at(
                time_s, fail_region, label="fail:%s" % region, args=(region,)
            )
        for region in regions:
            runtimes[region].start_ticks()
        loop.run()

        if counter[0] != 0:
            raise FederationError(
                "federation finished with %d unresolved requests" % counter[0]
            )
        duration = max(
            [last_arrival] + [runtimes[region].last_event_s for region in regions]
        )
        for region in regions:
            runtimes[region].finalize(duration)
        for region, telemetry in self.telemetries.items():
            telemetry.on_run_end(
                duration,
                total_requests,
                sum(len(state.replicas) for state in region_states[region]),
            )
        region_summaries = {
            region: runtimes[region].snapshot(duration) for region in regions
        }
        self.records = {region: runtimes[region].records for region in regions}

        return FederationSummary(
            fairness=self.fairness.value,
            router=stats,
            regions=region_summaries,
            tenants=self._global_tenants(duration, region_states, tenant_streams),
            cluster=self._global_cluster(
                duration, region_states, cluster_stream
            ),
            failed_regions=tuple(failed_regions),
            home=dict(home),
        )

    # -- global rollups --------------------------------------------------------------

    def _global_tenants(
        self,
        duration: float,
        region_states: Mapping[str, List[_TenantState]],
        tenant_streams,
    ) -> Dict[str, TrafficSummary]:
        """Per-tenant rollups across every region."""
        out: Dict[str, TrafficSummary] = {}
        for index, tenant in enumerate(self.tenants):
            states = [region_states[region][index] for region in self.regions]
            aggregates = dict(
                cold_starts=sum(state.cold_starts for state in states),
                cold_start_seconds=sum(state.cold_start_seconds for state in states),
                replica_timeline=_merge_timelines([state.timeline for state in states]),
                declared_classes=tenant.class_names,
                oom_evictions=sum(state.oom_evictions for state in states),
                rss_mb_seconds=sum(state.rss_mb_seconds for state in states),
                cpu_seconds=sum(state.cpu_seconds for state in states),
            )
            if tenant_streams is not None:
                out[tenant.name] = tenant_streams[tenant.name].summary(
                    mode=tenant.mode,
                    pattern=tenant.pattern_name,
                    duration_s=duration,
                    **aggregates,
                )
            else:
                records = sorted(
                    (record for state in states for record in state.records),
                    key=lambda record: record.request_id,
                )
                out[tenant.name] = summarize(
                    mode=tenant.mode,
                    pattern=tenant.pattern_name,
                    duration_s=duration,
                    records=records,
                    **aggregates,
                )
        return out

    def _global_cluster(
        self,
        duration: float,
        region_states: Mapping[str, List[_TenantState]],
        cluster_stream,
    ) -> TrafficSummary:
        """The federation-wide aggregate over all tenants and regions."""
        states = [
            state for region in self.regions for state in region_states[region]
        ]
        declared = sorted(
            {name for tenant in self.tenants for name in tenant.class_names}
        )
        aggregates = dict(
            cold_starts=sum(state.cold_starts for state in states),
            cold_start_seconds=sum(state.cold_start_seconds for state in states),
            replica_timeline=_merge_timelines([state.timeline for state in states]),
            declared_classes=declared,
            oom_evictions=sum(state.oom_evictions for state in states),
            rss_mb_seconds=sum(state.rss_mb_seconds for state in states),
            cpu_seconds=sum(state.cpu_seconds for state in states),
        )
        if cluster_stream is not None:
            return cluster_stream.summary(
                mode="federation",
                pattern="multi-region",
                duration_s=duration,
                **aggregates,
            )
        records = sorted(
            (record for state in states for record in state.records),
            key=lambda record: record.request_id,
        )
        return summarize(
            mode="federation",
            pattern="multi-region",
            duration_s=duration,
            records=records,
            **aggregates,
        )


@dataclass
class _RouteState:
    """The driver-side stand-in :func:`schedule_arrivals` iterates over."""

    name: str
    requests: List[Request]

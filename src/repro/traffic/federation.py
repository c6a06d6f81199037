"""Multi-region federation: N clusters behind one global front door.

This module drives one :class:`~repro.traffic.cluster_runtime.ClusterRuntime`
per region over one shared :class:`~repro.sim.engine.EventLoop` and one
:class:`~repro.sim.clock.SimClock`, which is what makes the
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
* :class:`FederatedTrafficEngine` — the one traffic driver: it generates
  the global arrival streams, routes each request, delivers it (possibly
  over the WAN), injects regional failures (``fail_at``), and rolls every
  region up into one :class:`FederationSummary`.

Failure semantics: a failed region halts its control plane and admits no
new work; its in-flight requests drain gracefully (completions still fire
and account normally) while its *queued* requests are evacuated and
re-routed to surviving regions — each re-placement pays the WAN hop out of
the failed region and counts as a failover.  A request already in WAN
transit toward a region that dies before it lands is bounced onward the
same way.

The single-cluster :class:`~repro.traffic.engine.MultiTenantTrafficEngine`
is this driver's one-region constructor (region ``"traffic"``): it
inherits the validation and :meth:`FederatedTrafficEngine._simulate`
unchanged, so a federation of exactly one cluster of that name reproduces
it request for request by construction (a contract test pins it).  A sole
region never asks the router for a placement and builds no WAN; the
one-region engine, which returns only the region's own summary, also
builds no federation-wide accumulators.
"""

from __future__ import annotations

import math
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
from repro.traffic.arrivals import Request, schedule_arrivals
from repro.traffic.autoscaler import Autoscaler, TargetConcurrencyPolicy
from repro.traffic.classes import json_number, read_json_array
from repro.traffic.cluster_runtime import (
    ClusterRuntime,
    _merge_timelines,
    _spec_for_mode,
    _TenantState,
    attach_streams,
    calibrated_service_time,
    rollup,
)
from repro.traffic.config import TrafficConfig, TrafficEngineError, validate_tenants
from repro.traffic.slo import RequestRecord, TrafficSummary
from repro.traffic.tenants import MultiTenantSummary, TenantSpec

if TYPE_CHECKING:  # pragma: no cover - lazy to avoid the obs import cycle
    from repro.gateway.middleware import MiddlewarePipeline
    from repro.obs.streaming import StreamingTrafficStats
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

    ``source`` is a JSON array of objects — inline, a file path or an
    already-decoded list::

        [{"region": "us-east", "nodes": 4, "memory_mb": 512,
          "initial_replicas": 2, "concurrency": 1, "tenants": ["checkout"]}]

    Only ``region`` is required; unknown keys are rejected so typos fail
    loudly instead of silently running the default shape.
    """
    raw = read_json_array(
        source,
        "--clusters",
        FederationError,
        invalid="invalid %s JSON: %s",
        empty="%s must be a non-empty JSON array of objects",
    )
    specs: List[ClusterSpec] = []
    for entry in raw:
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
        where = "--clusters region %r" % (entry["region"],)
        specs.append(
            ClusterSpec(
                region=entry["region"],
                nodes=json_number(entry, "nodes", where, FederationError, default=4),
                node_memory_mb=json_number(
                    entry, "memory_mb", where, FederationError, integer=False
                ),
                initial_replicas=json_number(entry, "initial_replicas", where, FederationError),
                per_replica_concurrency=json_number(entry, "concurrency", where, FederationError),
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
    if not math.isfinite(time_s) or time_s < 0:
        raise FederationError(
            "--fail-region %r: time must be a finite non-negative number of seconds" % source
        )
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
        #: (region, runtime) in registration order, for the one-pass walk.
        self._runtime_order = [(region, runtimes[region]) for region in self._regions]
        self._rng = random.Random(seed)
        #: data-gravity stickiness: (tenant, payload key) -> region.
        self._sticky: Dict[Tuple[str, int], str] = {}
        self.stats = RouterStats(
            policy=policy, placements={region: 0 for region in self._regions}
        )

    def _least_loaded(self, tenant: str, exclude: Optional[str]) -> Optional[str]:
        """The least-loaded live region, unsaturated ones first, in one pass.

        Regions are walked once in registration order, keeping the best
        unsaturated and the best live region under the key (load, home
        first, registration index): a later region replaces a best only
        when strictly better, so the index tie-break needs no compare.
        """
        home = self._home[tenant]
        best = best_live = None
        best_load = best_live_load = 0
        for region, runtime in self._runtime_order:
            if region == exclude or runtime.halted:
                continue
            load = runtime.load()
            if (
                best_live is None
                or load < best_live_load
                or (load == best_live_load and region == home)
            ):
                best_live, best_live_load = region, load
            if not runtime.saturated(tenant) and (
                best is None or load < best_load or (load == best_load and region == home)
            ):
                best, best_load = region, load
        return best_live if best is None else best

    def _choose(
        self, tenant: str, request: Request, now: float, exclude: Optional[str]
    ) -> Optional[str]:
        policy = self.policy
        if policy == "least-loaded":
            return self._least_loaded(tenant, exclude)
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
        if policy == "locality":
            return home if home in pool else pool[0]
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
    ) -> None:
        names = validate_tenants(tenants, oversubscription, starvation_guard)
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
        #: Per-region runtimes of the last run: each region's records,
        #: waterfall, OOM evictions and middleware counters.
        self.runtimes: Dict[str, ClusterRuntime] = {}
        #: The router of the last run (placement + WAN accounting).
        self.router: Optional[GlobalRouter] = None
        #: Per-region telemetry sinks of the last run (for the CLI to drain).
        self.telemetries: Dict[str, "Telemetry"] = {}

    # -- service times ---------------------------------------------------------------

    def _service_time(self, mode: str, payload_bytes: int) -> float:
        # Every runtime's calibration entry point (bench/trace.py names it).
        return calibrated_service_time(mode, payload_bytes, self.config.cost_model)

    # -- the run ---------------------------------------------------------------------

    def run(self) -> FederationSummary:
        """Route, deliver, execute and account every tenant's stream."""
        from repro.obs.streaming import StreamingTrafficStats

        # Federation-wide rollups for sketch mode: every region's tenants
        # fold each finished request into these too.
        exact = self.config.retain_records
        tenant_streams: Dict[str, StreamingTrafficStats] = {}
        cluster_stream = None
        if not exact:
            tenant_streams = {
                tenant.name: StreamingTrafficStats(declared_classes=tenant.class_names)
                for tenant in self.tenants
            }
            cluster_stream = StreamingTrafficStats()
        duration, failed_regions = self._simulate(tenant_streams, cluster_stream)
        runtimes = self.runtimes
        region_summaries = {
            region: runtimes[region].snapshot(duration) for region in self.regions
        }

        # Federation-wide rollups: each tenant across every region, then
        # every tenant and region together.  Exact mode folds each scope's
        # records in request-id order, one scope at a time.
        region_states = [runtimes[region].states for region in self.regions]
        tenants: Dict[str, TrafficSummary] = {}
        for index, tenant in enumerate(self.tenants):
            states = [per_region[index] for per_region in region_states]
            tenants[tenant.name] = rollup(
                tenant.mode,
                tenant.pattern_name,
                duration,
                states,
                tenant.class_names,
                _merge_timelines([state.timeline for state in states]),
                StreamingTrafficStats.of_records(_by_request_id(states), tenant.class_names)
                if exact
                else tenant_streams[tenant.name],
            )
        every = [state for per_region in region_states for state in per_region]
        declared = sorted({name for tenant in self.tenants for name in tenant.class_names})
        cluster = rollup(
            "federation",
            "multi-region",
            duration,
            every,
            declared,
            _merge_timelines([state.timeline for state in every]),
            StreamingTrafficStats.of_records(_by_request_id(every), declared)
            if exact
            else cluster_stream,
        )
        return FederationSummary(
            fairness=self.fairness.value,
            router=self.router.stats,
            regions=region_summaries,
            tenants=tenants,
            cluster=cluster,
            failed_regions=failed_regions,
            home=dict(self.home),
        )

    def _simulate(
        self,
        tenant_streams: Optional[Dict[str, StreamingTrafficStats]] = None,
        cluster_stream: Optional[StreamingTrafficStats] = None,
    ) -> Tuple[float, Tuple[str, ...]]:
        """Build the regions, run every arrival to its outcome, settle the charges.

        This is the one traffic simulation, shared by :meth:`run` and by
        the one-region :meth:`MultiTenantTrafficEngine.run
        <repro.traffic.engine.MultiTenantTrafficEngine.run>`.  It leaves
        the runtimes by region in :attr:`runtimes` and returns the run's
        duration and the regions failed during it; rolling up is left to
        the caller (the one-region engine only snapshots its region).  In
        sketch mode every tenant also folds into ``tenant_streams[name]``
        and ``cluster_stream`` when given (the federation-wide rollups).

        A sole region has no routing decision to make, so its arrivals go
        straight to :meth:`ClusterRuntime.admit` (unless it can fail, when
        the failover accounting needs the front door), and it builds no
        WAN.  The router is built either way: its stats are the summary's.
        """
        streams: Dict[str, List[Request]] = {
            tenant.name: tenant.generate() for tenant in self.tenants
        }
        total_requests = sum(len(stream) for stream in streams.values())
        if total_requests == 0:
            raise FederationError("cannot run with zero requests across all tenants")
        retain = self.config.retain_records

        clock = self.clock
        clock.reset()
        loop = EventLoop()
        counter = [total_requests]
        regions = self.regions
        single_region = len(regions) == 1
        home = self.home

        # One runtime per region, all over the shared clock and loop.  Each
        # tenant's stream rides on its state in its home region, where its
        # clients enter the federation.
        runtimes: Dict[str, ClusterRuntime] = {}
        self.telemetries = {}
        for spec in self.clusters:
            region = spec.region
            states = [
                _TenantState(
                    spec=tenant,
                    function_spec=_spec_for_mode(
                        tenant.mode, tenant.function_name, tenant.name
                    ),
                    autoscaler=self.autoscaler_factory(),
                    requests=streams[tenant.name] if home[tenant.name] == region else [],
                )
                for tenant in self.tenants
            ]
            region_cluster_stream = None
            if not retain:
                region_cluster_stream = attach_streams(states, tenant_streams, cluster_stream)
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
                config=spec.config_for(self.config),
                fairness=self.fairness,
                starvation_guard=self.starvation_guard,
                intra=self.intra,
                oversubscription=self.oversubscription,
                clock=clock,
                loop=loop,
                service_time=self._service_time,
                counter=counter,
                total_requests=total_requests,
                telemetry=telemetry,
                pipeline=pipeline,
                cluster_stream=region_cluster_stream,
                region=region,
                node_prefix=region,
            )
        self.runtimes = runtimes

        # The WAN: a full mesh, one topology node per region.  A sole region
        # never ships a request anywhere, so it builds none.
        topology = None
        if not single_region:
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
            home,
            runtimes,
            seed=self.router_seed,
        )
        self.router = router
        stats = router.stats
        failed_regions: List[str] = []

        last_arrival = max(
            (request.arrival_s for stream in streams.values() for request in stream),
            default=0.0,
        )
        for telemetry in self.telemetries.values():
            telemetry.on_run_start(total_requests, duration_hint_s=last_arrival)

        # Bootstrap each region before any arrival: home tenants get their
        # initial pool where their clients enter; everyone else scales from
        # zero on demand (warmth/locality make that visible).
        for spec in self.clusters:
            initial = (
                spec.initial_replicas
                if spec.initial_replicas is not None
                else self.config.initial_replicas
            )
            runtimes[spec.region].bootstrap(
                {
                    tenant.name: initial
                    for tenant in self.tenants
                    if home[tenant.name] == spec.region
                }
            )

        def ship(origin: str, target: str, tenant_name: str, request: Request) -> None:
            """Send one request over the WAN from ``origin`` to land in ``target``."""
            delay = topology.link_between(origin, target).transfer_seconds(
                request.payload_bytes
            )
            stats.wan_seconds += delay
            stats.wan_bytes += request.payload_bytes
            loop.schedule_at(
                loop.now + delay, deliver, label="wan", args=(target, tenant_name, request)
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
                    ship(region, target, tenant_name, request)
                    return
            runtime.admit(runtime.by_tenant[tenant_name], request)

        def route(state: _TenantState, request: Request) -> None:
            """The front door: place one arrival and start its delivery."""
            tenant_name = state.name
            if single_region:
                # No routing decision exists; a failed sole region still
                # accounts each later arrival as a failover with nowhere
                # to go.
                deliver(regions[0], tenant_name, request)
                return
            region = router.place(tenant_name, request, loop.now)
            origin = home[tenant_name]
            if region is None:
                # Every region is down; land at home and let its queue
                # timeout account the rejection.
                stats.placements[origin] += 1
                deliver(origin, tenant_name, request)
            elif region == origin:
                deliver(region, tenant_name, request)
            else:
                ship(origin, region, tenant_name, request)

        def fail_region(region: str) -> None:
            runtime = runtimes[region]
            if runtime.halted:
                return
            failed_regions.append(region)
            for state, request in runtime.fail(loop.now):
                target = router.reroute(state.name, request, loop.now, exclude=region)
                if target is None or target == region:
                    # Nowhere alive to go: re-admit locally; the queue
                    # timeout (patience already spent) rejects it.
                    runtime.admit(state, request)
                else:
                    ship(region, target, state.name, request)

        # Every arrival enters at its tenant's home region: the router is
        # the admit hook, except for a sole region that never fails, whose
        # runtime admits directly.
        home_states = [
            runtimes[home[tenant.name]].by_tenant[tenant.name] for tenant in self.tenants
        ]
        admit = route
        if single_region and not self.fail_at:
            admit = runtimes[regions[0]].admit
        schedule_arrivals(loop, home_states, admit, total_requests)
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
                sum(len(state.replicas) for state in runtimes[region].states),
            )
        return duration, tuple(failed_regions)


def _by_request_id(states: Sequence[_TenantState]) -> List[RequestRecord]:
    """Every retained record of ``states`` in request-id order."""
    return sorted(
        (record for state in states for record in state.records),
        key=lambda record: record.request_id,
    )

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

One driver runs all of it:
:class:`~repro.traffic.federation.FederatedTrafficEngine`, which
validates its tenants once and owns the one simulation.
:class:`MultiTenantTrafficEngine` is its one-region constructor (region
``traffic``, one telemetry sink, one middleware pipeline) whose run returns
that region's :class:`~repro.traffic.cluster_runtime.ClusterRuntime`
snapshot.  The single-stream :class:`TrafficEngine` builds one such
engine per run around a one-tenant spec.

Service times come from the same machinery as every figure in the
reproduction: each distinct (mode, payload size, cost model) is invoked
once per process through an isolated
:func:`~repro.experiments.environment.build_pair_setup` environment and
memoised by :func:`~repro.traffic.cluster_runtime.calibrated_service_time`
— the simulation is deterministic, so the per-request cost of a given
transfer never varies.  Contention is then modelled by the engine's
concurrency bounds rather than by re-simulating every transfer, which
keeps hundred-thousand-request runs cheap.

Everything is driven by one serial :class:`~repro.sim.engine.EventLoop`,
so a seeded run is exactly reproducible: same arrivals, same scaling
decisions, same percentiles.  Cost accounting is sharded per node (each
node of the serving cluster charges its own
:class:`~repro.sim.ledger.NodeLedger`), which is what per-node usage
rollups read.  Compared runs (:func:`run_comparison`,
:func:`~repro.traffic.policies.compare_scaling_policies`) are independent
simulations that run one after another in this process; shipping each to
a worker process did not reliably pay for its pickling on a two-core host.
"""

from __future__ import annotations

import copy

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

from repro.platform.gateway import FairnessPolicy, IntraTenantOrder
# schedule_arrivals is re-exported by name: bench/trace.py wraps
# ``repro.traffic.engine:schedule_arrivals``.
from repro.traffic.arrivals import Request, schedule_arrivals
from repro.traffic.cluster_runtime import MB, ClusterRuntime
from repro.traffic.autoscaler import Autoscaler, TargetConcurrencyPolicy
from repro.traffic.config import TRAFFIC_MODES, TrafficConfig, TrafficEngineError
from repro.traffic.federation import ClusterSpec, FederatedTrafficEngine
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
    "schedule_arrivals",
]

#: The one region of a :class:`MultiTenantTrafficEngine`.
REGION = "traffic"


class MultiTenantTrafficEngine(FederatedTrafficEngine):
    """Drives several tenants' arrival streams over one shared cluster.

    A one-region federation: region ``traffic`` with this config's nodes,
    one telemetry sink and one middleware pipeline.  Every :meth:`run`
    regenerates the tenants' streams and builds fresh autoscalers, as a
    freshly built engine's run would, and returns that region's summary.

    ``middleware`` is the optional gateway chain every request is threaded
    through (:mod:`repro.gateway.middleware`); ``None`` — or a pipeline with
    no enabled stages — leaves the request path byte-identical to a run
    without one.
    """

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        config: Optional[TrafficConfig] = None,
        fairness: FairnessPolicy = FairnessPolicy.WFQ,
        starvation_guard: int = 32,
        autoscaler_factory: Optional[Callable[[], Autoscaler]] = None,
        oversubscription: float = 2.0,
        intra: IntraTenantOrder = IntraTenantOrder.FIFO,
        telemetry: Optional[Telemetry] = None,
        middleware: Optional[MiddlewarePipeline] = None,
    ) -> None:
        config = config or TrafficConfig()
        super().__init__(
            tenants,
            [ClusterSpec(region=REGION, nodes=config.nodes)],
            config=config,
            fairness=fairness,
            starvation_guard=starvation_guard,
            autoscaler_factory=autoscaler_factory,
            oversubscription=oversubscription,
            intra=intra,
            telemetry_factory=lambda region: telemetry,
            middleware_factory=lambda region: middleware,
        )

    @property
    def runtime(self) -> ClusterRuntime:
        """The last run's cluster: its records, waterfall, evictions and middleware counters."""
        return self.runtimes[REGION]

    def run(self) -> MultiTenantSummary:
        """Admit, queue, execute and account every tenant's stream.

        The summary is the one region's snapshot; no federation-wide
        rollup is built.
        """
        duration, _ = self._simulate()
        return self.runtime.snapshot(duration)

    # Bound in this class's own body so bench/trace.py can name the
    # one-region calibration entry point.
    _service_time = FederatedTrafficEngine._service_time


class TrafficEngine:
    """Drives one arrival stream against one runtime mode.

    The single-tenant special case of :class:`MultiTenantTrafficEngine`:
    one function, one pool, a FIFO admission queue — exactly the regime the
    sustained-load benchmarks compare runtimes under.  Every :meth:`run`
    scales with its own copy of ``autoscaler``, so one run's policy state
    (a cooldown, a forecast) never carries into the next.
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
            autoscaler_factory=lambda: copy.deepcopy(self.autoscaler),
            oversubscription=1.0,  # replicas beyond the cores could never serve
            intra=self.intra,
            telemetry=self.telemetry,
            middleware=self.middleware,
        )
        result = engine.run()
        runtime = engine.runtime
        self.middleware_stats = runtime.middleware_stats
        self.records = runtime.records["tenant-1"]
        self.evictions = runtime.evictions
        # Relabel the internal tenant's waterfall rows with the mode name.
        self.waterfall = [
            replace(row, label=self.mode)
            for row in runtime.waterfall
            if row.label == "tenant-1"
        ]
        return result.tenants["tenant-1"]


def run_comparison(
    requests: Sequence[Request],
    modes: Sequence[str] = ("roadrunner-user", "runc-http"),
    autoscaler_factory=None,
    config: Optional[TrafficConfig] = None,
    pattern: str = "trace",
    intra: IntraTenantOrder = IntraTenantOrder.FIFO,
    telemetry_factory: Optional[Callable[[str], Telemetry]] = None,
    waterfalls_out: Optional[Dict[str, List[WaterfallRow]]] = None,
    middleware_factory: Optional[Callable[[str], MiddlewarePipeline]] = None,
    middleware_out: Optional[Dict[str, Dict[str, Dict[str, int]]]] = None,
) -> Dict[str, TrafficSummary]:
    """Run the *same* arrival stream against several runtimes, one after another.

    Each mode gets a fresh engine and a fresh autoscaler (from
    ``autoscaler_factory``, defaulting to target-concurrency 1.0) so no
    state leaks between the compared runs — the arrival stream is the only
    thing they share.

    ``telemetry_factory`` builds one :class:`~repro.obs.telemetry.Telemetry`
    per mode (called with the mode name); ``waterfalls_out`` collects each
    mode's waterfall rows.
    ``middleware_factory`` builds one fresh
    :class:`~repro.gateway.middleware.MiddlewarePipeline` per mode (stage
    state like caches and token buckets must not leak between compared
    runs); ``middleware_out`` collects each mode's per-stage counters.
    """
    summaries: Dict[str, TrafficSummary] = {}
    for mode in modes:
        engine = TrafficEngine(
            mode,
            autoscaler=autoscaler_factory() if autoscaler_factory else None,
            config=config,
            intra=intra,
            telemetry=telemetry_factory(mode) if telemetry_factory else None,
            middleware=middleware_factory(mode) if middleware_factory else None,
        )
        summaries[mode] = engine.run(requests, pattern=pattern)
        if waterfalls_out is not None:
            waterfalls_out[mode] = engine.waterfall
        if middleware_out is not None:
            middleware_out[mode] = engine.middleware_stats
    return summaries

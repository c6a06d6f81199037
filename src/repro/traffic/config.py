"""What every traffic run is configured with, and the checks on it.

:class:`TrafficConfig` holds the knobs of one sustained-load run,
:func:`validate_tenants` checks a driver's tenants and gateway knobs, and
:class:`TrafficEngineError` is what both raise.  They sit below the
drivers (:mod:`repro.traffic.engine` builds on :mod:`repro.traffic.federation`),
so both can import them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.sim.costs import CostModel, DEFAULT_COST_MODEL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traffic.tenants import TenantSpec

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
    oversubscription: float,
    starvation_guard: int,
) -> List[str]:
    """Check a driver's tenants and gateway knobs; return the tenant names.

    Every run needs the same guarantees: at least one tenant, unique
    names (``cluster`` is reserved for the cluster-wide rollup), unique
    functions, known modes, ``oversubscription >= 1`` and
    ``starvation_guard >= 1``.  Failures raise :class:`TrafficEngineError`.
    """
    if not tenants:
        raise TrafficEngineError("need at least one tenant")
    names = [tenant.name for tenant in tenants]
    if len(set(names)) != len(names):
        raise TrafficEngineError("tenant names must be unique, got %s" % names)
    if "cluster" in names:
        raise TrafficEngineError(
            "tenant name 'cluster' is reserved for the cluster-wide rollup"
        )
    functions = [tenant.function_name for tenant in tenants]
    if len(set(functions)) != len(functions):
        raise TrafficEngineError("tenant functions must be unique, got %s" % functions)
    for tenant in tenants:
        if tenant.mode not in TRAFFIC_MODES:
            raise TrafficEngineError(
                "tenant %r: unknown traffic mode %r (known: %s)"
                % (tenant.name, tenant.mode, ", ".join(TRAFFIC_MODES))
            )
    if oversubscription < 1.0:
        raise TrafficEngineError("oversubscription must be >= 1.0")
    if starvation_guard < 1:
        raise TrafficEngineError("starvation_guard must be >= 1")
    return names

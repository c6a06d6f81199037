"""The node memory model: replica RSS budgets, pressure, and inflation.

Until now the traffic engine modelled contention purely through concurrency
bounds — per-node RAM was free, so density claims ("how many tenants fit on
a node?") were not honest.  This module gives every replica a modelled
resident-set footprint, distinct per runtime profile (a container carries a
full userland; a Wasm instance is an order of magnitude lighter — the
baseline RSS figures live in :class:`~repro.sim.costs.CostModel`), charged
against a per-node memory budget.

Pressure matters in three ways, all driven from the traffic engine:

* **service-time inflation** — past a configurable *pressure knee* (a
  fraction of the budget) services slow down linearly, modelling page-cache
  erosion and allocator contention on a crowded node;
* **keep-alive economics** — a warm idle replica costs RSS-seconds, so the
  autoscaler's keep-alive window shrinks with node pressure
  (:meth:`~repro.traffic.autoscaler.Autoscaler.effective_keep_alive_s`);
* **OOM eviction** — when a node exceeds its budget the engine kills the
  coldest idle replica, a forced future cold start surfaced as a
  first-class counter.

Accounting flows through the same :class:`~repro.sim.ledger.MemoryMeter`
machinery every sandbox uses: each node's ledger shard carries one ``rss``
meter, so per-node peak RSS shows up in node usage tables, figure exports
and Prometheus gauges without any extra plumbing.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.costs import CostModel
from repro.sim.ledger import ClusterLedger, MemoryMeter

MB = 1024 * 1024

#: Default fraction of the node budget above which services inflate.
DEFAULT_PRESSURE_KNEE = 0.85

#: Default service-time inflation slope: the multiplier reaches
#: ``1 + slope`` when a node is exactly at its budget.
DEFAULT_PRESSURE_SLOPE = 1.0


class MemoryModelError(ValueError):
    """Raised for invalid memory-model parameters."""


def default_replica_rss_mb(mode: str, cost_model: CostModel) -> float:
    """The modelled per-replica RSS for a traffic mode's runtime profile.

    Containers pay the full userland baseline; Wasm instances (both
    roadrunner modes and the WasmEdge baseline run the function inside a
    Wasm VM hosted by a lean shim) pay the Wasm baseline.
    """
    if mode == "runc-http":
        return cost_model.container_baseline_rss_mb
    return cost_model.wasm_baseline_rss_mb


class NodeMemoryModel:
    """Per-node RSS accounting against a shared budget.

    One instance serves a whole engine run: ``allocate``/``free`` move a
    replica's footprint onto and off its node (mirrored into the node
    ledger shard's ``rss`` meter so peaks flow into every existing memory
    report), ``pressure`` is the used/budget fraction the autoscaler and
    evictor consume, and ``inflation`` is the service-time multiplier past
    the knee.  All bookkeeping is plain floats over dicts, so a seeded run
    reproduces it exactly.
    """

    def __init__(
        self,
        budget_mb: float,
        knee: float = DEFAULT_PRESSURE_KNEE,
        slope: float = DEFAULT_PRESSURE_SLOPE,
        ledger: Optional[ClusterLedger] = None,
    ) -> None:
        if budget_mb <= 0:
            raise MemoryModelError("node memory budget must be positive (MB)")
        if not 0.0 < knee < 1.0:
            raise MemoryModelError("pressure knee must be in (0, 1), got %r" % knee)
        if slope < 0:
            raise MemoryModelError("pressure slope must be non-negative")
        self.budget_mb = float(budget_mb)
        self.knee = float(knee)
        self.slope = float(slope)
        self._ledger = ledger
        self._used_mb: Dict[str, float] = {}

    # -- accounting -----------------------------------------------------------------

    def allocate(self, node: str, rss_mb: float) -> None:
        """Charge ``rss_mb`` of replica footprint to ``node``."""
        self._used_mb[node] = self.used_mb(node) + rss_mb
        meter = self._meter(node)
        if meter is not None:
            meter.allocate(int(round(rss_mb * MB)))

    def free(self, node: str, rss_mb: float) -> None:
        """Release a replica's footprint from ``node``."""
        self._used_mb[node] = self.used_mb(node) - rss_mb
        meter = self._meter(node)
        if meter is not None:
            meter.free(int(round(rss_mb * MB)))

    def _meter(self, node: str) -> Optional[MemoryMeter]:
        if self._ledger is None:
            return None
        return self._ledger.node_shard(node).meter("rss:%s" % node)

    # -- queries --------------------------------------------------------------------

    def used_mb(self, node: str) -> float:
        return self._used_mb.get(node, 0.0)

    def over_budget(self, node: str) -> bool:
        return self.used_mb(node) > self.budget_mb

    def pressure(self, node: str) -> float:
        """Used/budget fraction (can exceed 1.0 when nothing is evictable)."""
        return self.used_mb(node) / self.budget_mb

    def inflation(self, node: str) -> float:
        """Service-time multiplier for work dispatched to ``node``.

        1.0 at or below the knee; linear above it, reaching ``1 + slope``
        at exactly the budget and climbing further for a node pinned over
        budget by unevictable (busy) replicas.
        """
        pressure = self.pressure(node)
        if pressure <= self.knee:
            return 1.0
        return 1.0 + self.slope * (pressure - self.knee) / (1.0 - self.knee)

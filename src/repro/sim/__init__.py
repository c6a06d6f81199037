"""Simulation substrate: clock, calibrated cost model and cost ledgers.

Every other substrate (Wasm VM, kernel, network, container runtime) charges
the time, CPU and memory consequences of its operations to a
:class:`~repro.sim.ledger.CostLedger` using rates from a
:class:`~repro.sim.costs.CostModel`.  Cluster accounting is sharded: each
node charges its own :class:`~repro.sim.ledger.NodeLedger` and a
:class:`~repro.sim.ledger.ClusterLedger` aggregates the shards into one
deterministic view.  The experiment harness reads the (merged) ledger to
produce the latency / throughput / CPU / RAM series reported in the paper.
"""

from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.ledger import (
    Charge,
    ClusterLedger,
    CostCategory,
    CostLedger,
    CpuDomain,
    LedgerSnapshot,
    MemoryMeter,
    NodeLedger,
)
from repro.sim.engine import EventLoop, ParallelTracks

__all__ = [
    "SimClock",
    "CostModel",
    "Charge",
    "ClusterLedger",
    "CostCategory",
    "CostLedger",
    "CpuDomain",
    "LedgerSnapshot",
    "MemoryMeter",
    "NodeLedger",
    "EventLoop",
    "ParallelTracks",
]

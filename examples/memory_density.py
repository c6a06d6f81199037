"""Memory density: what a node's RSS budget does to keep-alive economics.

Two byte-identical workloads — a bursty container tenant next to a steady
Wasm tenant — run twice over the same seeds:

* **Unbounded memory** — idle replicas park for the full keep-alive window
  at zero cost; the cluster carries every warm replica it ever started.
* **60 MB node budget** — parked replicas now occupy a scarce resource.
  Past the pressure knee service times inflate, the autoscaler trims its
  keep-alive window, and the OOM evictor reclaims the coldest idle replica
  when a node overflows — forcing that tenant to pay a cold start on its
  next burst.

The punchline is the density column the paper's argument rests on:
**RSS-MB-seconds per 1000 served requests**, the resident memory a unit
of goodput costs.  Containers (~38 MB parked) are an order of magnitude
more expensive to keep warm than Wasm replicas (~9 MB), which is exactly
why a memory-priced cluster evicts them first.

Run with::

    python examples/memory_density.py
"""

from __future__ import annotations

import sys

from repro.traffic.arrivals import BurstyArrivals, PoissonArrivals
from repro.traffic.engine import MultiTenantTrafficEngine, TrafficConfig
from repro.traffic.report import render_summary_table
from repro.traffic.tenants import TenantSpec

NODE_BUDGET_MB = 60.0


def make_tenants() -> list:
    """A bursty container tenant beside a steady Wasm tenant."""
    return [
        TenantSpec(
            name="containers",
            mode="runc-http",  # ~38 MB parked per replica
            weight=1,
            arrivals=BurstyArrivals(
                on_rate_rps=40, duration_s=12, function="containers",
                payload_mb=0.5, seed=7,
            ),
        ),
        TenantSpec(
            name="wasm",
            mode="roadrunner-user",  # ~9 MB parked per replica
            weight=1,
            arrivals=PoissonArrivals(
                rate_rps=20, duration_s=12, function="wasm",
                payload_mb=0.5, seed=11,
            ),
        ),
    ]


def run(node_memory_mb: float):
    engine = MultiTenantTrafficEngine(
        make_tenants(),
        config=TrafficConfig(nodes=2, node_memory_mb=node_memory_mb),
    )
    summary = engine.run()
    return engine, summary


def main() -> int:
    _, unbounded = run(node_memory_mb=0.0)
    engine, budgeted = run(node_memory_mb=NODE_BUDGET_MB)

    print("Same seeds, same arrivals; only the node RSS budget changes.")
    print()
    print("Unbounded memory (no model):")
    print(render_summary_table(dict(unbounded.tenants, cluster=unbounded.cluster)))
    print()
    print("%.0f MB per node:" % NODE_BUDGET_MB)
    print(render_summary_table(dict(budgeted.tenants, cluster=budgeted.cluster)))
    print()

    print("OOM evictions (time, tenant, replica):")
    for when, tenant, replica in engine.runtime.evictions:
        print("  t=%7.3fs  %-10s %s" % (when, tenant, replica))
    print()
    print("Cold starts: %d unbounded -> %d budgeted (evicted replicas must"
          % (unbounded.cluster.cold_starts, budgeted.cluster.cold_starts))
    print("restart to serve the next burst).")
    for name in ("containers", "wasm"):
        row = budgeted.tenants[name]
        print("%-10s: %8.1f RSS-MB-s per 1k served requests"
              % (name, row.rss_mb_per_1k))

    containers = budgeted.tenants["containers"]
    wasm = budgeted.tenants["wasm"]
    ok = (
        budgeted.cluster.oom_evictions > 0
        and budgeted.cluster.cold_starts > unbounded.cluster.cold_starts
        and unbounded.cluster.oom_evictions == 0
        and containers.rss_mb_per_1k > wasm.rss_mb_per_1k
    )
    print()
    print("OK" if ok else "UNEXPECTED: memory-pressure accounting drifted")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

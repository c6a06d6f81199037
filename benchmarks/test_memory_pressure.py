"""Benchmark: the memory-pressure model prices keep-alive without breaking runs.

Two gates protect the model's headline promises:

1. **Over-budget clusters evict and survive** — under a node RSS budget the
   OOM evictor fires, every eviction forces a later cold start, the run
   still serves its full offered load, and the density headline
   (RSS-MB-seconds per 1000 served requests) is positive and round-trips
   through the figure exporter.
2. **Disabled means invisible** — with ``node_memory_mb == 0`` the rendered
   report and the exported figure are byte-identical to what a memory-free
   build produced: no eviction column, no memory panel, no drift in any
   number.

Both gates run the real multi-tenant discrete-event engine end to end, so
replica accounting, autoscaler keep-alive economics and the SLO rollup are
covered too.
"""

import os

from repro.metrics.export import (
    figure_from_csv,
    figure_to_csv,
    traffic_from_figure,
    traffic_to_figure,
)
from repro.traffic.arrivals import BurstyArrivals, PoissonArrivals
from repro.traffic.engine import MultiTenantTrafficEngine, TrafficConfig
from repro.traffic.report import render_summary_table
from repro.traffic.tenants import TenantSpec

#: Per-node RSS budget tight enough that parked container replicas overflow.
NODE_BUDGET_MB = 60.0


def _tenants():
    return [
        TenantSpec(
            name="containers",
            mode="runc-http",
            weight=1,
            arrivals=BurstyArrivals(
                on_rate_rps=40, duration_s=12, function="containers",
                payload_mb=0.5, seed=7,
            ),
        ),
        TenantSpec(
            name="wasm",
            mode="roadrunner-user",
            weight=1,
            arrivals=PoissonArrivals(
                rate_rps=20, duration_s=12, function="wasm",
                payload_mb=0.5, seed=11,
            ),
        ),
    ]


def _run(node_memory_mb):
    engine = MultiTenantTrafficEngine(
        _tenants(),
        config=TrafficConfig(nodes=2, node_memory_mb=node_memory_mb),
    )
    return engine, engine.run()


def test_over_budget_cluster_evicts_and_survives(results_dir):
    _, free = _run(node_memory_mb=0.0)
    engine, budgeted = _run(node_memory_mb=NODE_BUDGET_MB)

    # The evictor fired, and every kill is visible in the summary rollup.
    assert budgeted.cluster.oom_evictions > 0
    assert len(engine.runtime.evictions) == budgeted.cluster.oom_evictions
    # Evicted replicas restart later: strictly more cold starts than the
    # memory-free twin of the same workload.
    assert budgeted.cluster.cold_starts > free.cluster.cold_starts
    # Pressure never costs goodput in this scenario — it only reprices it.
    assert budgeted.cluster.offered == free.cluster.offered
    assert budgeted.cluster.completed == free.cluster.completed
    assert budgeted.cluster.timed_out == 0 and budgeted.cluster.dropped == 0

    # The density headline exists and round-trips through the exporter.
    assert budgeted.cluster.rss_mb_per_1k > 0.0
    assert budgeted.cluster.cpu_seconds_per_1k > 0.0
    results = dict(budgeted.tenants, cluster=budgeted.cluster)
    figure = traffic_to_figure(results)
    assert "memory" in figure.panels
    restored = traffic_from_figure(figure_from_csv(figure_to_csv(figure)))
    assert restored["cluster"].oom_evictions == budgeted.cluster.oom_evictions
    assert restored["cluster"].rss_mb_per_1k == budgeted.cluster.rss_mb_per_1k

    with open(
        os.path.join(results_dir, "memory_pressure.txt"), "w", encoding="utf-8"
    ) as handle:
        handle.write(
            "Node budget: %.0f MB   evictions: %d   cold starts: %d -> %d\n\n%s\n"
            % (
                NODE_BUDGET_MB,
                budgeted.cluster.oom_evictions,
                free.cluster.cold_starts,
                budgeted.cluster.cold_starts,
                render_summary_table(results),
            )
        )


def test_disabled_model_is_invisible_in_every_output(results_dir):
    _, free = _run(node_memory_mb=0.0)
    results = dict(free.tenants, cluster=free.cluster)

    assert free.cluster.oom_evictions == 0
    assert free.cluster.rss_mb_seconds == 0.0
    assert free.cluster.cpu_seconds == 0.0
    table = render_summary_table(results)
    assert "evicted" not in table and "RSS-MB/1k" not in table
    figure = traffic_to_figure(results)
    assert "memory" not in figure.panels
    assert "oom_evictions" not in figure_to_csv(figure)

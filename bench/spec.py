"""What the benchmark reports: workloads, metric names, units, directions.

Standard library only, so ``bench/run.py`` can read it without importing
the program.  Bounds live in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

from typing import Dict, Tuple

from bench.trace import LAYERS

#: Workload -> why it exists (one line each).
WORKLOADS: Dict[str, str] = {
    "steady": (
        "one Poisson tenant on a fixed 16-replica pool, FIFO, sketch mode: the hot "
        "path alone (event loop, queue, load balancer, dispatch, sketches)"
    ),
    "tenants": (
        "three tenants with WFQ-cost, EDF, autoscaling, memory budget, middleware, "
        "exact records, telemetry and exports: the multi-tenant path"
    ),
    "federation": (
        "three WAN-linked regions, six tenants, least-loaded router, a regional "
        "failure at half-time: routing, WAN transfers, evacuation"
    ),
    "transfers": (
        "the paper's a->b transfers over seven mode/placement pairs plus fan-outs: "
        "the substrate alone, with the traffic layers idle"
    ),
}

#: End-to-end metrics: name -> (unit, better).  Every workload reports all.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "sim_req_per_s": ("req/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_mean_ms": ("ms", "lower"),
    "sim_p99_ms": ("ms", "lower"),
    "sim_goodput_rps": ("req/s", "higher"),
    "sim_served_pct": ("%", "higher"),
    "sim_deadline_met_pct": ("%", "higher"),
}

#: Per-layer metrics read off the simulated summaries: name -> (unit,
#: better).  A workload without the mechanism reports 0 (no queue, no WAN).
SIM_LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "gateway.queue_share_pct": ("%", "lower"),
    "gateway.timed_out": ("count", "lower"),
    "gateway.dropped": ("count", "lower"),
    "gateway.shed": ("count", "lower"),
    "autoscaler.cold_starts": ("count", "lower"),
    "autoscaler.mean_replicas": ("count", "lower"),
    "memory.oom_evictions": ("count", "lower"),
    "memory.rss_mb_s_per_1k": ("MB.s/1k", "lower"),
    "middleware.cache_hit_pct": ("%", "higher"),
    "middleware.coalesced": ("count", "higher"),
    "middleware.hedge_fired": ("count", "lower"),
    "middleware.hedge_won_pct": ("%", "higher"),
    "federation.remote_pct": ("%", "lower"),
    "federation.spillovers": ("count", "lower"),
    "federation.failovers": ("count", "lower"),
    "federation.wan_mb": ("MB", "lower"),
    "transfer.rr_latency_cut_pct": ("%", "higher"),
    "transfer.serialization_cut_pct": ("%", "higher"),
    "transfer.fanout_tput_x": ("x", "higher"),
}
for _runtime in ("rr", "runc", "wasmedge"):
    SIM_LAYER_METRICS.update(
        {
            "transfer.%s.serialization_share_pct" % _runtime: ("%", "lower"),
            "transfer.%s.wasm_io_share_pct" % _runtime: ("%", "lower"),
            "transfer.%s.copied_mb" % _runtime: ("MB", "lower"),
            "transfer.%s.syscalls" % _runtime: ("count", "lower"),
            "transfer.%s.context_switches" % _runtime: ("count", "lower"),
        }
    )

#: Whole-trace metrics of the traced run: name -> (unit, better).
TRACE_METRICS: Dict[str, Tuple[str, str]] = {
    "trace.wall_s": ("s", "lower"),
    "trace_overhead_pct": ("%", "lower"),
    "trace.overhead_estimate_pct": ("%", "lower"),
    "trace.unattributed_pct": ("%", "lower"),
    "trace.spans_dropped": ("count", "lower"),
}


def per_layer_metrics() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric, in report order: name -> (unit, better)."""
    metrics: Dict[str, Tuple[str, str]] = {}
    for layer in LAYERS:
        metrics["%s.calls" % layer] = ("count", "lower")
        metrics["%s.self_pct" % layer] = ("%", "lower")
    metrics.update(TRACE_METRICS)
    metrics.update(SIM_LAYER_METRICS)
    return metrics

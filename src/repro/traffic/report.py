"""Plain-text rendering of sustained-load runs.

One table of SLO numbers per compared runtime (or per tenant of a shared
cluster), one latency-distribution table (shared formatting with every
other latency report in the reproduction), and a replica-count-over-time
strip per mode so autoscaler behaviour is visible without plotting.  Runs
with scheduling classes add a per-class table (volume, deadline-met ratio,
tail latency per class), and policy-comparison runs get a dedicated table
lining up p99, deadline attainment, cold starts and replica-seconds across
scaling policies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple

from repro.metrics.report import format_latency_summaries, format_table
from repro.traffic.slo import TrafficSummary
from repro.traffic.tenants import MultiTenantSummary

if TYPE_CHECKING:  # pragma: no cover - type-only; repro.obs imports this package
    from repro.obs.spans import WaterfallRow
    from repro.traffic.federation import FederationSummary


def render_summary_table(
    results: Mapping[str, TrafficSummary],
    title: str = "Traffic summary",
    label: str = "mode",
) -> str:
    """The headline table: volume, goodput, scaling, cold starts.

    Rows are labelled by the mapping's keys — runtime modes for a
    comparison run, tenant names for a shared-cluster run.
    """
    middleware = _has_middleware(results)
    memory = _has_memory(results)
    headers = [
        label,
        "offered",
        "completed",
        "timed out",
        "dropped",
        "shed",
    ]
    if middleware:
        # Middleware columns appear only when a pipeline actually resolved
        # requests, so pipeline-free reports keep their exact byte shape.
        headers += ["cached", "coalesced", "rate limited", "rejected"]
    headers += [
        "duration (s)",
        "goodput (rps)",
        "mean replicas",
        "max replicas",
        "cold starts",
        "cold start (s)",
    ]
    if memory:
        # Memory economics appear only when a memory model ran (same
        # conditional-rendering discipline as the middleware columns).
        headers += ["evicted", "RSS-MB/1k", "CPU-s/1k"]
    rows = []
    for key, summary in results.items():
        row = [
            key,
            summary.offered,
            summary.completed,
            summary.timed_out,
            summary.dropped,
            summary.shed,
        ]
        if middleware:
            row += [
                summary.cached,
                summary.coalesced,
                summary.rate_limited,
                summary.rejected,
            ]
        row += [
            summary.duration_s,
            summary.goodput_rps,
            summary.mean_replicas,
            summary.max_replicas,
            summary.cold_starts,
            summary.cold_start_seconds,
        ]
        if memory:
            row += [
                summary.oom_evictions,
                summary.rss_mb_per_1k,
                summary.cpu_seconds_per_1k,
            ]
        rows.append(row)
    return format_table(headers, rows, title=title)


def render_latency_tables(results: Mapping[str, TrafficSummary], label: str = "mode") -> str:
    """End-to-end latency and queueing-delay distributions, one row per key."""
    latency = {key: summary.latency for key, summary in results.items()}
    queueing = {key: summary.queueing for key, summary in results.items()}
    service = {key: summary.service for key, summary in results.items()}
    return "\n\n".join(
        [
            format_latency_summaries(latency, title="End-to-end latency", label=label),
            format_latency_summaries(queueing, title="Queueing delay", label=label),
            format_latency_summaries(service, title="Service time", label=label),
        ]
    )


def render_replica_timeline(
    summary: TrafficSummary, buckets: int = 12, width: int = 40, label: str = ""
) -> str:
    """An ASCII strip chart of pool size over the run for one mode/tenant."""
    name = label or summary.mode
    if not summary.replica_timeline or summary.duration_s <= 0:
        return "%s: no replica timeline" % name
    samples = _bucketize(summary.replica_timeline, summary.duration_s, buckets)
    peak = max(count for _, count in samples) or 1
    lines = ["replicas over time — %s" % name]
    for start, count in samples:
        bar = "#" * max(1 if count > 0 else 0, int(round(width * count / peak)))
        lines.append("  t=%7.1fs  %3d  %s" % (start, count, bar))
    return "\n".join(lines)


def _bucketize(
    timeline: Sequence[Tuple[float, int]], duration_s: float, buckets: int
) -> List[Tuple[float, int]]:
    """Collapse the (time, count) step function into per-bucket maxima.

    Each bucket reports the largest pool size active at any point during
    its interval — a short-lived peak between two bucket boundaries still
    shows up, so the strip chart never contradicts the table's
    ``max_replicas``.
    """
    step = duration_s / buckets
    samples: List[Tuple[float, int]] = []
    for index in range(buckets):
        start, end = index * step, (index + 1) * step
        entering = 0
        peak = None
        for time_s, value in timeline:
            if time_s <= start:
                entering = value
            elif time_s < end:
                peak = value if peak is None else max(peak, value)
            else:
                break
        peak = entering if peak is None else max(peak, entering)
        samples.append((start, peak))
    return samples


def render_class_table(
    results: Mapping[str, TrafficSummary],
    title: str = "Scheduling classes",
    label: str = "tenant",
) -> str:
    """Per-class SLO attainment: one row per (tenant/mode, class).

    A class with no completions has no latency distribution; its p50/p99
    cells render as ``n/a`` rather than a misleading zero.
    """
    headers = [
        label,
        "class",
        "offered",
        "completed",
        "timed out",
        "dropped",
        "shed",
        "deadline met",
        "deadline total",
        "met ratio",
        "p50 (s)",
        "p99 (s)",
    ]
    rows = [
        [
            key,
            cls.name,
            cls.offered,
            cls.completed,
            cls.timed_out,
            cls.dropped,
            cls.shed,
            cls.deadline_met,
            cls.deadline_total,
            cls.deadline_met_ratio,
            cls.latency.p50_s if cls.completed else "n/a",
            cls.latency.p99_s if cls.completed else "n/a",
        ]
        for key, summary in results.items()
        for cls in summary.classes
    ]
    return format_table(headers, rows, title=title)


def render_waterfall_table(
    rows: Sequence["WaterfallRow"],
    title: str = "Latency waterfall (where completed requests spent their time)",
) -> str:
    """The per-tenant/per-class stage decomposition of end-to-end latency.

    One row per (tenant-or-mode, class): mean and p95 of the pure queue
    wait, the cold-start wait, and the service time, plus the end-to-end
    total they roll up into.  Rows come from
    :meth:`repro.obs.streaming.StreamingTrafficStats.waterfall`, over exact
    samples or sketches — the table doesn't care which.
    """
    if not rows:
        return "%s\n(no completed requests)" % title
    headers = [
        "scope",
        "class",
        "completed",
        "queue mean (s)",
        "queue p95 (s)",
        "cold mean (s)",
        "cold p95 (s)",
        "service mean (s)",
        "service p95 (s)",
        "total mean (s)",
        "total p95 (s)",
    ]
    table_rows = [
        [
            row.label,
            row.request_class,
            row.completed,
            row.queue_mean_s,
            row.queue_p95_s,
            row.cold_mean_s,
            row.cold_p95_s,
            row.service_mean_s,
            row.service_p95_s,
            row.total_mean_s,
            row.total_p95_s,
        ]
        for row in rows
    ]
    return format_table(headers, table_rows, title=title)


def _has_class_structure(results: Mapping[str, TrafficSummary]) -> bool:
    """Whether any run carries more than the implicit single default class."""
    return any(
        len(summary.classes) > 1 or summary.deadline_total > 0
        for summary in results.values()
    )


def _has_middleware(results: Mapping[str, TrafficSummary]) -> bool:
    """Whether any run had requests resolved by gateway middleware."""
    return any(
        summary.cached or summary.coalesced or summary.rate_limited or summary.rejected
        for summary in results.values()
    )


def _has_memory(results: Mapping[str, TrafficSummary]) -> bool:
    """Whether any run modelled memory (RSS-seconds accrued or OOM fired)."""
    return any(
        summary.rss_mb_seconds or summary.oom_evictions or summary.cpu_seconds
        for summary in results.values()
    )


def render_middleware_table(
    stats: Mapping[str, Mapping[str, int]],
    title: str = "Gateway middleware (per-stage counters)",
) -> str:
    """Per-stage middleware counters: one row per (stage, event).

    ``stats`` is :meth:`repro.gateway.MiddlewarePipeline.stats` (or the
    engine's ``middleware_stats``): stages in registration order, each
    mapping event names (hits, misses, parked, fired...) to counts.
    """
    headers = ["stage", "event", "count"]
    rows = [
        [stage, event, count]
        for stage, counters in stats.items()
        for event, count in counters.items()
    ]
    if not rows:
        return "%s\n(no middleware events)" % title
    return format_table(headers, rows, title=title)


def render_policy_comparison(results: Mapping[str, TrafficSummary]) -> str:
    """The policy-comparison headline: SLO vs provisioning cost per policy."""
    headers = [
        "policy",
        "completed",
        "p99 (s)",
        "deadline met ratio",
        "cold starts",
        "cold start (s)",
        "replica-seconds",
        "max replicas",
        "goodput (rps)",
    ]
    rows = [
        [
            policy,
            summary.completed,
            summary.latency.p99_s,
            summary.deadline_met_ratio,
            summary.cold_starts,
            summary.cold_start_seconds,
            summary.replica_seconds,
            summary.max_replicas,
            summary.goodput_rps,
        ]
        for policy, summary in results.items()
    ]
    parts = [
        format_table(
            headers, rows, title="Scaling-policy comparison (same seeded arrivals)"
        )
    ]
    if _has_class_structure(results):
        parts.extend(["", render_class_table(results, label="policy")])
    return "\n".join(parts)


def render_fairness_table(summary: MultiTenantSummary) -> str:
    """Gateway admission accounting: weights, dispatches, drops, timeouts, sheds."""
    headers = ["tenant", "weight", "enqueued", "dispatched", "dropped", "timed out", "shed"]
    rows = [
        [
            stats.tenant,
            stats.weight,
            stats.enqueued,
            stats.dispatched,
            stats.dropped,
            stats.timed_out,
            stats.shed,
        ]
        for stats in summary.queue_stats.values()
    ]
    return format_table(headers, rows, title="Gateway fair queue (%s)" % summary.fairness)


def render_node_table(summary: MultiTenantSummary) -> str:
    """Per-node ledger usage: what each shard of the cluster accounted."""
    headers = ["node", "charges", "total (s)", "cpu (s)", "peak RAM (MB)"]
    rows = [
        [
            usage.node,
            usage.charges,
            usage.total_seconds,
            usage.cpu_seconds,
            usage.peak_memory_mb,
        ]
        for usage in summary.nodes.values()
    ]
    return format_table(headers, rows, title="Per-node ledger shards")


def render_multi_tenant_report(summary: MultiTenantSummary) -> str:
    """The shared-cluster report: per-tenant tables, fairness, cluster rollup."""
    labelled = dict(summary.tenants)
    parts = [
        "Multi-tenant load: %d tenants sharing one cluster, fairness=%s (simulated time)"
        % (len(summary.tenants), summary.fairness),
        "",
        render_summary_table(labelled, title="Per-tenant summary", label="tenant"),
        "",
        render_fairness_table(summary),
        "",
    ]
    if any(summary.middleware.values()):
        parts.extend([render_middleware_table(summary.middleware), ""])
    if _has_class_structure(labelled):
        parts.extend([render_class_table(labelled), ""])
    parts.extend([
        render_latency_tables(labelled, label="tenant"),
        "",
        render_summary_table({"cluster": summary.cluster}, title="Cluster rollup", label="scope"),
        "",
    ])
    if summary.nodes:
        parts.extend([render_node_table(summary), ""])
    parts.extend(
        render_replica_timeline(tenant_summary, label=name)
        for name, tenant_summary in summary.tenants.items()
    )
    return "\n".join(parts)


def render_router_table(summary: "FederationSummary") -> str:
    """The global router's placement accounting, one row per region."""
    stats = summary.router
    headers = ["region", "placed", "home tenants", "status"]
    homes: Dict[str, List[str]] = {region: [] for region in summary.regions}
    for tenant, region in summary.home.items():
        homes.setdefault(region, []).append(tenant)
    rows = [
        [
            region,
            stats.placements.get(region, 0),
            ", ".join(sorted(homes.get(region, []))) or "-",
            "FAILED" if region in summary.failed_regions else "up",
        ]
        for region in summary.regions
    ]
    parts = [
        format_table(
            headers,
            rows,
            title="Global router (%s): %d local, %d remote, %d spillovers, %d failovers"
            % (stats.policy, stats.local, stats.remote, stats.spillovers, stats.failovers),
        )
    ]
    if stats.wan_bytes:
        parts.append(
            "WAN: %.1f MB shipped cross-region, %.3f s of transfer time paid"
            % (stats.wan_bytes / 1e6, stats.wan_seconds)
        )
    return "\n".join(parts)


def render_federation_report(summary: "FederationSummary") -> str:
    """The multi-region report: router, per-region and global rollups."""
    region_rollups = {
        region: region_summary.cluster
        for region, region_summary in summary.regions.items()
    }
    parts = [
        "Federated load: %d regions behind one global router, policy=%s, fairness=%s"
        " (simulated time)"
        % (len(summary.regions), summary.router.policy, summary.fairness),
        "",
        render_router_table(summary),
        "",
        render_summary_table(
            region_rollups, title="Per-region rollup", label="region"
        ),
        "",
        render_summary_table(
            summary.tenants, title="Per-tenant summary (all regions)", label="tenant"
        ),
        "",
        render_latency_tables(region_rollups, label="region"),
        "",
        render_summary_table(
            {"federation": summary.cluster}, title="Federation rollup", label="scope"
        ),
        "",
    ]
    for region, region_summary in summary.regions.items():
        parts.extend(
            [
                "=== region %s ===" % region,
                "",
                render_multi_tenant_report(region_summary),
            ]
        )
    return "\n".join(parts)


def render_traffic_report(results: Mapping[str, TrafficSummary]) -> str:
    """The full report the CLI prints: summary, distributions, timelines."""
    if not results:
        return "Sustained load: no runs to report"
    first = next(iter(results.values()))
    # Each mode's run ends when its last request resolves, so durations are
    # per mode (the summary table); only the arrival stream is shared.
    parts = [
        "Sustained load: pattern=%s, %d requests offered per mode (simulated time)"
        % (first.pattern, first.offered),
        "",
        render_summary_table(results),
        "",
    ]
    if _has_class_structure(results):
        parts.extend([render_class_table(results, label="mode"), ""])
    parts.extend([
        render_latency_tables(results),
        "",
    ])
    parts.extend(render_replica_timeline(summary) for summary in results.values())
    return "\n".join(parts)

"""Export figure results — and traffic runs — as CSV or JSON.

The text tables are good for reading; these exporters make the regenerated
series easy to plot or diff against the paper's data with external tools.
Traffic runs export through the same machinery: :func:`traffic_to_figure`
flattens per-tenant/per-mode :class:`~repro.traffic.slo.TrafficSummary`
objects into a figure whose x axis is the tenant (or mode) name, so
``figure_to_csv``/``figure_to_json``/``write_figure`` apply unchanged, and
:func:`traffic_from_figure` inverts the flattening (every percentile and
counter round-trips; only the replica timeline, a step function with no
per-tenant x position, is left behind).
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, List, Mapping


class ExportError(ValueError):
    """Raised for malformed results."""


#: Panels of a traffic figure holding one LatencySummary per tenant/mode.
_TRAFFIC_LATENCY_PANELS = ("latency", "queueing", "service")
#: The distribution statistics each of those panels carries as series.
_TRAFFIC_LATENCY_SERIES = ("count", "mean_s", "p50_s", "p95_s", "p99_s", "max_s")
#: Counter panels: series -> TrafficSummary attribute.
_TRAFFIC_VOLUME_SERIES = ("offered", "completed", "timed_out", "dropped", "shed")
#: Middleware-resolved outcome counters: written only when some summary has
#: a nonzero value, so pipeline-free exports keep their exact byte shape
#: (and figures from before the middleware pipeline parse back fine).
_TRAFFIC_MW_SERIES = ("cached", "coalesced", "rate_limited", "rejected")
#: Memory-economics series: written only when a memory model ran (some
#: summary accrued RSS-seconds, CPU seconds or evictions), so memory-free
#: exports keep their exact byte shape and figures from before the memory
#: model parse back fine.
_TRAFFIC_MEMORY_SERIES = ("oom_evictions", "rss_mb_seconds", "cpu_seconds")
_TRAFFIC_SCALING_SERIES = (
    "cold_starts",
    "cold_start_seconds",
    "replica_seconds",
    "max_replicas",
    "duration_s",
)
_TRAFFIC_INT_FIELDS = frozenset(
    {
        "offered", "completed", "timed_out", "dropped", "shed",
        "cached", "coalesced", "rate_limited", "rejected",
        "cold_starts", "max_replicas", "count", "oom_evictions",
    }
)
#: Per-scheduling-class series: ClassSummary counters, then its latency stats.
_TRAFFIC_CLASS_COUNTERS = (
    "offered", "completed", "timed_out", "dropped", "shed",
    "deadline_total", "deadline_met",
)
#: Counters added after traffic figures started being written: they parse
#: leniently (default 0 when the series is absent) instead of raising.
_LENIENT_COUNTERS = frozenset({"shed"}) | frozenset(_TRAFFIC_MW_SERIES)


def figure_to_dict(result) -> Dict[str, Any]:
    """A plain-dict view of a FigureResult (JSON-serialisable)."""
    return {
        "figure": result.figure,
        "title": result.title,
        "x_label": result.x_label,
        "x_values": list(result.x_values),
        "panels": {
            panel: {series: list(values) for series, values in series_map.items()}
            for panel, series_map in result.panels.items()
        },
        "notes": result.notes,
    }


def figure_to_json(result) -> str:
    """Serialise a FigureResult to JSON text."""
    return json.dumps(figure_to_dict(result), indent=2, sort_keys=True)


def figure_to_csv(result) -> str:
    """Serialise a FigureResult to long-form CSV (one row per data point)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["figure", "panel", "series", result.x_label, "value"])
    for panel, series_map in sorted(result.panels.items()):
        for series, values in sorted(series_map.items()):
            if len(values) > len(result.x_values):
                raise ExportError(
                    "panel %r series %r has %d values for %d x positions"
                    % (panel, series, len(values), len(result.x_values))
                )
            for x, value in zip(result.x_values, values):
                writer.writerow([result.figure, panel, series, x, value])
    return buffer.getvalue()


def figure_from_dict(data: Mapping[str, Any]):
    """Rebuild a FigureResult from :func:`figure_to_dict`'s plain-dict view."""
    from repro.experiments.results import FigureResult

    try:
        return FigureResult(
            figure=data["figure"],
            title=data["title"],
            x_label=data["x_label"],
            x_values=list(data["x_values"]),
            panels={
                panel: {series: list(values) for series, values in series_map.items()}
                for panel, series_map in data["panels"].items()
            },
            notes=data.get("notes", ""),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ExportError("malformed figure dict: %s" % exc)


def figure_from_json(text: str):
    """Rebuild a FigureResult from :func:`figure_to_json` output."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ExportError("not valid figure JSON: %s" % exc)
    return figure_from_dict(data)


def figure_from_csv(text: str):
    """Rebuild a FigureResult from :func:`figure_to_csv`'s long form.

    CSV carries no types: x positions and values come back as strings, which
    is what the long form wrote for categorical axes; numeric consumers
    (:func:`traffic_from_figure`) coerce per field.
    """
    from repro.experiments.results import FigureResult

    rows = list(csv.reader(io.StringIO(text)))
    if not rows or len(rows[0]) != 5 or rows[0][:3] != ["figure", "panel", "series"]:
        raise ExportError("not a figure CSV (missing the long-form header)")
    x_label = rows[0][3]
    figure_name = ""
    x_values: List[Any] = []
    panels: Dict[str, Dict[str, List[Any]]] = {}
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != 5:
            raise ExportError("line %d: expected 5 columns, got %d" % (line, len(row)))
        figure_name, panel, series, x, value = row
        if x not in x_values:
            x_values.append(x)
        panels.setdefault(panel, {}).setdefault(series, []).append(value)
    return FigureResult(
        figure=figure_name,
        title=figure_name,
        x_label=x_label,
        x_values=x_values,
        panels=panels,
    )


# -- traffic summaries --------------------------------------------------------------


def traffic_to_figure(
    results: Mapping[str, Any],
    figure: str = "traffic",
    title: str = "Sustained-load traffic summary",
    x_label: str = "tenant",
    notes: str = "",
):
    """Flatten traffic summaries into a FigureResult for CSV/JSON export.

    ``results`` maps a label (tenant name, runtime mode, or ``cluster`` for
    the rollup) to a :class:`~repro.traffic.slo.TrafficSummary`.  The label
    becomes the x position; each panel/series pair is one statistic, so the
    long-form CSV reads ``traffic,latency,p99_s,steady,0.123``.
    """
    from repro.experiments.results import FigureResult

    if not results:
        raise ExportError("no traffic summaries to export")
    result = FigureResult(
        figure=figure,
        title=title,
        x_label=x_label,
        x_values=list(results),
        notes=notes,
    )
    # Scheduling classes add a second dimension (label x class).  Every
    # class seen by *any* summary becomes a full series set so the panel
    # stays rectangular; labels that lack a class carry zero rows, and the
    # per-label "classes" meta series records which classes are really its
    # own, so the inversion reconstructs exactly the original tuples —
    # zero-request classes included.
    from repro.metrics.stats import LatencySummary
    from repro.traffic.slo import ClassSummary

    class_union: List[str] = sorted(
        {cls.name for summary in results.values() for cls in summary.classes}
    )
    has_middleware = any(
        getattr(summary, series) for summary in results.values() for series in _TRAFFIC_MW_SERIES
    )
    has_memory = any(
        getattr(summary, series)
        for summary in results.values()
        for series in _TRAFFIC_MEMORY_SERIES
    )
    empty_class = {name: ClassSummary(
        name=name, offered=0, completed=0, timed_out=0, dropped=0,
        deadline_total=0, deadline_met=0, latency=LatencySummary.empty(),
    ) for name in class_union}
    for label, summary in results.items():
        for panel in _TRAFFIC_LATENCY_PANELS:
            distribution = getattr(summary, panel)
            for series in _TRAFFIC_LATENCY_SERIES:
                result.add_point(panel, series, getattr(distribution, series))
        for series in _TRAFFIC_VOLUME_SERIES:
            result.add_point("volume", series, getattr(summary, series))
        if has_middleware:
            for series in _TRAFFIC_MW_SERIES:
                result.add_point("volume", series, getattr(summary, series))
        for series in _TRAFFIC_SCALING_SERIES:
            result.add_point("scaling", series, getattr(summary, series))
        if has_memory:
            for series in _TRAFFIC_MEMORY_SERIES:
                result.add_point("memory", series, getattr(summary, series))
            result.add_point("memory", "rss_mb_per_1k", summary.rss_mb_per_1k)
            result.add_point("memory", "cpu_seconds_per_1k", summary.cpu_seconds_per_1k)
        result.add_point("scaling", "goodput_rps", summary.goodput_rps)
        result.add_point("scaling", "deadline_met_ratio", summary.deadline_met_ratio)
        result.add_point("meta", "mode", summary.mode)
        result.add_point("meta", "pattern", summary.pattern)
        mine = {cls.name: cls for cls in summary.classes}
        result.add_point("meta", "classes", "|".join(sorted(mine)))
        for name in class_union:
            cls = mine.get(name, empty_class[name])
            for series in _TRAFFIC_CLASS_COUNTERS:
                result.add_point("classes", "%s/%s" % (name, series), getattr(cls, series))
            if has_middleware:
                for series in _TRAFFIC_MW_SERIES:
                    result.add_point("classes", "%s/%s" % (name, series), getattr(cls, series))
            for series in _TRAFFIC_LATENCY_SERIES:
                result.add_point(
                    "classes", "%s/latency_%s" % (name, series), getattr(cls.latency, series)
                )
    return result


def multi_tenant_to_figure(summary):
    """Export a MultiTenantSummary: every tenant plus the cluster rollup.

    The fairness policy and per-tenant weights travel as ``meta`` panel
    series (the cluster row carries the summed weight), so they survive
    the CSV long form as well as JSON — ``notes`` only exists in JSON.
    """
    labelled: Dict[str, Any] = dict(summary.tenants)
    if "cluster" in labelled:
        raise ExportError("tenant name 'cluster' collides with the rollup row")
    labelled["cluster"] = summary.cluster
    notes = "fairness=%s weights=%s" % (
        summary.fairness,
        json.dumps(dict(summary.weights), sort_keys=True),
    )
    result = traffic_to_figure(labelled, notes=notes)
    for label in result.x_values:
        result.add_point("meta", "fairness", summary.fairness)
        result.add_point(
            "meta", "weight", summary.weights.get(label, sum(summary.weights.values()))
        )
    return result


#: Series of the per-node usage panel (NodeUsage attributes).
_NODE_USAGE_SERIES = ("charges", "total_seconds", "cpu_seconds", "peak_memory_mb")


def node_usage_to_figure(summary):
    """Flatten a run's per-node cost rollups into an exportable figure.

    ``summary`` is a :class:`~repro.traffic.tenants.MultiTenantSummary`
    (its ``nodes`` mapping comes from the sharded cluster ledger) or a
    plain ``{node: NodeUsage}`` mapping.  The x axis is the node name —
    the ``cluster`` row holds node-less gateway work — so the long-form
    CSV reads ``traffic-nodes,usage,total_seconds,traffic-0,1.234``.
    """
    from repro.experiments.results import FigureResult

    nodes = summary if isinstance(summary, Mapping) else summary.nodes
    if not nodes:
        raise ExportError("no per-node usage to export")
    result = FigureResult(
        figure="traffic-nodes",
        title="Per-node ledger usage",
        x_label="node",
        x_values=list(nodes),
    )
    for usage in nodes.values():
        for series in _NODE_USAGE_SERIES:
            result.add_point("usage", series, getattr(usage, series))
    return result


def node_usage_from_figure(figure) -> Dict[str, Any]:
    """Invert :func:`node_usage_to_figure`: node -> NodeUsage."""
    from repro.traffic.tenants import NodeUsage

    usage: Dict[str, Any] = {}
    for index, node in enumerate(figure.x_values):
        values: Dict[str, Any] = {}
        for series in _NODE_USAGE_SERIES:
            try:
                raw = figure.panels["usage"][series][index]
            except (KeyError, IndexError) as exc:
                raise ExportError(
                    "figure is missing node-usage field usage/%s: %s" % (series, exc)
                )
            values[series] = int(float(raw)) if series == "charges" else float(raw)
        usage[str(node)] = NodeUsage(node=str(node), **values)
    return usage


def policies_to_figure(results: Mapping[str, Any]):
    """Flatten a policy comparison into one exportable figure.

    ``results`` maps a policy label to that run's :class:`TrafficSummary`
    (use :func:`repro.traffic.policies.policy_cluster_summaries` for
    multi-tenant runs).  The x axis is the policy, so one figure lines up
    p99 (``latency/p99_s``), deadline-met ratio and per-class counters
    (``classes`` panel), cold starts and replica-seconds (``scaling``
    panel) across policies — and, being a plain traffic figure, it
    round-trips through CSV/JSON and :func:`traffic_from_figure` like any
    other.
    """
    return traffic_to_figure(
        results,
        figure="traffic-policies",
        title="Scaling-policy comparison (same seeded arrivals)",
        x_label="policy",
    )


#: Per-region series of a federation figure's ``regions`` panel.  The
#: placement/failure pair varies per region; the router aggregates repeat on
#: every row (the long-form CSV needs one value per x position).
_FEDERATION_REGION_SERIES = (
    "placements",
    "failed",
    "local",
    "remote",
    "spillovers",
    "failovers",
    "wan_seconds",
    "wan_bytes",
)


def federation_to_figure(summary):
    """Flatten a FederationSummary: one x position per region plus the rollup.

    Each region's cluster-wide :class:`~repro.traffic.slo.TrafficSummary`
    exports through :func:`traffic_to_figure` unchanged (so every latency
    panel, counter and class series round-trips), and a ``regions`` panel
    adds the router's view: per-region placements, failure flags, and the
    WAN/spillover aggregates.  Figures written before federation existed
    simply lack the panel — :func:`federation_from_figure` parses them with
    zeroed router stats instead of raising.
    """
    labelled: Dict[str, Any] = {
        region: region_summary.cluster
        for region, region_summary in summary.regions.items()
    }
    if "federation" in labelled:
        raise ExportError("region name 'federation' collides with the rollup row")
    labelled["federation"] = summary.cluster
    stats = summary.router
    notes = "router=%s home=%s" % (stats.policy, json.dumps(dict(summary.home), sort_keys=True))
    result = traffic_to_figure(
        labelled,
        figure="traffic-federation",
        title="Federated multi-region traffic summary",
        x_label="region",
        notes=notes,
    )
    total_placed = sum(stats.placements.values())
    for label in result.x_values:
        rollup = label == "federation"
        result.add_point(
            "regions",
            "placements",
            total_placed if rollup else stats.placements.get(label, 0),
        )
        result.add_point(
            "regions",
            "failed",
            len(summary.failed_regions) if rollup else int(label in summary.failed_regions),
        )
        result.add_point("regions", "local", stats.local)
        result.add_point("regions", "remote", stats.remote)
        result.add_point("regions", "spillovers", stats.spillovers)
        result.add_point("regions", "failovers", stats.failovers)
        result.add_point("regions", "wan_seconds", stats.wan_seconds)
        result.add_point("regions", "wan_bytes", stats.wan_bytes)
        result.add_point("meta", "router_policy", stats.policy)
    return result


def federation_from_figure(figure) -> Dict[str, Any]:
    """Invert :func:`federation_to_figure`.

    Returns ``{"regions": {region: TrafficSummary}, "cluster":
    TrafficSummary, "router": RouterStats, "failed_regions": (...)}``.
    Tolerant of figures written before the ``regions`` panel existed (a
    plain traffic figure parses back with zeroed router stats and no
    failures), so old artifacts keep loading.
    """
    from repro.traffic.federation import RouterStats

    summaries = traffic_from_figure(figure)
    cluster = summaries.pop("federation", None)
    regions_panel = figure.panels.get("regions", {})
    meta = figure.panels.get("meta", {})

    def region_value(series: str, index: int) -> float:
        try:
            return float(regions_panel[series][index])
        except (KeyError, IndexError, TypeError, ValueError):
            return 0.0

    labels = [str(label) for label in figure.x_values]
    placements: Dict[str, int] = {}
    failed: List[str] = []
    aggregates = {"local": 0, "remote": 0, "spillovers": 0, "failovers": 0}
    wan_seconds, wan_bytes = 0.0, 0
    policy = "unknown"
    for index, label in enumerate(labels):
        if label == "federation":
            continue
        placements[label] = int(region_value("placements", index))
        if int(region_value("failed", index)):
            failed.append(label)
        for series in aggregates:
            aggregates[series] = int(region_value(series, index))
        wan_seconds = region_value("wan_seconds", index)
        wan_bytes = int(region_value("wan_bytes", index))
        try:
            policy = str(meta["router_policy"][index])
        except (KeyError, IndexError):
            pass
    router = RouterStats(
        policy=policy,
        placements=placements,
        wan_seconds=wan_seconds,
        wan_bytes=wan_bytes,
        **aggregates,
    )
    return {
        "regions": summaries,
        "cluster": cluster,
        "router": router,
        "failed_regions": tuple(failed),
    }


def traffic_from_figure(figure) -> Dict[str, Any]:
    """Invert :func:`traffic_to_figure`: label -> TrafficSummary.

    Works on figures parsed back from JSON *or* CSV (where all values are
    strings): each field is coerced to its declared type.  The replica
    timeline is not part of the export and comes back empty.
    """
    from repro.metrics.stats import LatencySummary
    from repro.traffic.slo import ClassSummary, TrafficSummary

    def pick(panel: str, series: str, index: int) -> Any:
        raw = pick_raw(panel, series, index)
        if series in _TRAFFIC_INT_FIELDS:
            return int(float(raw))
        return float(raw)

    def pick_raw(panel: str, series: str, index: int) -> Any:
        try:
            return figure.panels[panel][series][index]
        except (KeyError, IndexError) as exc:
            raise ExportError("figure is missing traffic field %s/%s: %s" % (panel, series, exc))

    def pick_count(panel: str, series: str, index: int) -> int:
        """A late-addition counter (``shed``, middleware), defaulting to 0.

        Only counters added *after* figures started being written get this
        leniency (figures from before hard-deadline admission control have
        no ``shed`` series, and pipeline-free figures carry no middleware
        series at all); a missing pre-existing counter still raises, so
        corrupt figures keep failing loudly.
        """
        try:
            raw = pick_raw(panel, series, index)
        except ExportError:
            return 0
        return int(float(raw))

    def pick_lenient(panel: str, series: str, index: int) -> float:
        """A late-addition float series (memory economics), defaulting to 0.0."""
        try:
            raw = pick_raw(panel, series, index)
        except ExportError:
            return 0.0
        return float(raw)

    def pick_classes(index: int) -> tuple:
        """Rebuild the label's ClassSummary tuple from the classes panel.

        Figures written before scheduling classes existed have no
        ``meta/classes`` series; they come back with an empty tuple.
        """
        meta = figure.panels.get("meta", {})
        if "classes" not in meta:
            return ()
        try:
            encoded = str(meta["classes"][index])
        except IndexError as exc:
            raise ExportError("figure is missing traffic field meta/classes: %s" % exc)
        names = [name for name in encoded.split("|") if name]
        restored = []
        for name in names:
            counters = {
                series: (
                    pick_count("classes", "%s/%s" % (name, series), index)
                    if series in _LENIENT_COUNTERS
                    else int(float(pick_raw("classes", "%s/%s" % (name, series), index)))
                )
                for series in _TRAFFIC_CLASS_COUNTERS + _TRAFFIC_MW_SERIES
            }
            latency = LatencySummary(
                **{
                    series: (
                        int(float(raw)) if series in _TRAFFIC_INT_FIELDS else float(raw)
                    )
                    for series in _TRAFFIC_LATENCY_SERIES
                    for raw in [pick_raw("classes", "%s/latency_%s" % (name, series), index)]
                }
            )
            restored.append(ClassSummary(name=name, latency=latency, **counters))
        return tuple(restored)

    summaries: Dict[str, Any] = {}
    for index, label in enumerate(figure.x_values):
        distributions = {}
        for panel in _TRAFFIC_LATENCY_PANELS:
            distributions[panel] = LatencySummary(
                **{series: pick(panel, series, index) for series in _TRAFFIC_LATENCY_SERIES}
            )
        summaries[str(label)] = TrafficSummary(
            mode=str(pick_raw("meta", "mode", index)),
            pattern=str(pick_raw("meta", "pattern", index)),
            duration_s=pick("scaling", "duration_s", index),
            offered=pick("volume", "offered", index),
            completed=pick("volume", "completed", index),
            timed_out=pick("volume", "timed_out", index),
            dropped=pick("volume", "dropped", index),
            shed=pick_count("volume", "shed", index),
            cached=pick_count("volume", "cached", index),
            coalesced=pick_count("volume", "coalesced", index),
            rate_limited=pick_count("volume", "rate_limited", index),
            rejected=pick_count("volume", "rejected", index),
            latency=distributions["latency"],
            queueing=distributions["queueing"],
            service=distributions["service"],
            cold_starts=pick("scaling", "cold_starts", index),
            cold_start_seconds=pick("scaling", "cold_start_seconds", index),
            replica_seconds=pick("scaling", "replica_seconds", index),
            max_replicas=pick("scaling", "max_replicas", index),
            replica_timeline=(),
            classes=pick_classes(index),
            oom_evictions=pick_count("memory", "oom_evictions", index),
            rss_mb_seconds=pick_lenient("memory", "rss_mb_seconds", index),
            cpu_seconds=pick_lenient("memory", "cpu_seconds", index),
        )
    return summaries


def write_figure(result, path: str, fmt: str = "csv") -> str:
    """Write a FigureResult to ``path`` in the requested format."""
    if fmt == "csv":
        content = figure_to_csv(result)
    elif fmt == "json":
        content = figure_to_json(result)
    elif fmt == "txt":
        content = result.to_text() + "\n"
    else:
        raise ExportError("unknown export format %r (use csv, json or txt)" % fmt)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    return path

"""Plain-text rendering of experiment results.

The benchmark harness prints one table per figure with the same rows/series
the paper reports; these helpers keep the formatting in one place so the
tables stay consistent across figures.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Union

from repro.metrics.stats import LatencySummary

Number = Union[int, float]


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return "%.3e" % value
        return "%.4g" % value
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Render a fixed-width table."""
    materialized: List[List[str]] = [[_format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_figure_result(
    title: str,
    x_label: str,
    x_values: Sequence[Number],
    series: Mapping[str, Sequence[Number]],
) -> str:
    """Render one figure panel: x values down the rows, one column per series."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(x_values):
        row: List[object] = [x]
        for name in series:
            values = series[name]
            row.append(values[i] if i < len(values) else "")
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_latency_summaries(
    summaries: Mapping[str, LatencySummary],
    title: str = "",
    label: str = "series",
) -> str:
    """Render one row of distribution statistics per labelled summary.

    This is how every latency distribution in the reproduction is printed:
    figure summaries, trace replays and the traffic engine's SLO tables all
    share the same columns (count, mean, p50, p95, p99, max).

    Summaries with no samples render their statistics as ``n/a`` — a tenant
    or class that saw zero requests has no distribution, and printing zeros
    would read as "instant", not "absent".
    """
    headers = [label, "count"] + ["%s (s)" % h for h in ("mean", "p50", "p95", "p99", "max")]
    rows = [
        [name, s.count, s.mean_s, s.p50_s, s.p95_s, s.p99_s, s.max_s]
        if s.count
        else [name, 0, "n/a", "n/a", "n/a", "n/a", "n/a"]
        for name, s in summaries.items()
    ]
    return format_table(headers, rows, title=title)


def improvement_percent(baseline: float, candidate: float) -> float:
    """Relative improvement of ``candidate`` over ``baseline`` in percent."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (baseline - candidate) / baseline


def speedup(baseline: float, candidate: float) -> float:
    """How many times larger ``baseline`` is than ``candidate``."""
    if candidate <= 0:
        return float("inf")
    return baseline / candidate

"""Metrics: the latency / throughput / CPU / RAM measurements of the paper.

:class:`~repro.metrics.records.TransferMetrics` captures one data transfer;
:class:`~repro.metrics.records.LedgerWindow` measures it by snapshotting the
cost ledger around the transfer, and every figure reads that record as it
stands; the report module renders the tables the experiment harness prints.
"""

from repro.metrics.records import LedgerWindow, TransferMetrics
from repro.metrics.report import format_latency_summaries, format_table, format_figure_result
from repro.metrics.stats import LatencySummary, mean, p50, p95, p99, percentile
from repro.metrics.export import (
    figure_from_csv,
    figure_from_dict,
    figure_from_json,
    figure_to_csv,
    figure_to_dict,
    figure_to_json,
    multi_tenant_to_figure,
    traffic_from_figure,
    traffic_to_figure,
    write_figure,
)

__all__ = [
    "LedgerWindow",
    "TransferMetrics",
    "LatencySummary",
    "percentile",
    "mean",
    "p50",
    "p95",
    "p99",
    "format_table",
    "format_figure_result",
    "format_latency_summaries",
    "figure_to_csv",
    "figure_to_dict",
    "figure_to_json",
    "figure_from_csv",
    "figure_from_dict",
    "figure_from_json",
    "traffic_to_figure",
    "traffic_from_figure",
    "multi_tenant_to_figure",
    "write_figure",
]

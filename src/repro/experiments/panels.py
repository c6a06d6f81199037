"""The eight-panel sweep figures (7-10): panel definitions and one builder per shape.

Figs. 7 and 8 sweep the payload size of an a->b chain, Figs. 9 and 10 the
degree of a 10 MB fan-out; each pair differs only in its modes and in
whether the functions share a node.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.harness import sweep_fanout, sweep_pair
from repro.experiments.results import FigureResult
from repro.metrics.collector import AggregateMetrics
from repro.sim.costs import DEFAULT_COST_MODEL
from repro.workloads.generators import (
    DEFAULT_FANOUT_DEGREES,
    DEFAULT_SWEEP_SIZES_MB,
    FANOUT_PAYLOAD_MB,
)

#: Mode label -> the series name the paper uses in its legends.
MODE_LABELS: Dict[str, str] = {
    "roadrunner-user": "RoadRunner (User space)",
    "roadrunner-kernel": "RoadRunner (Kernel space)",
    "roadrunner-network": "RoadRunner (Network)",
    "runc-http": "RunC",
    "wasmedge-http": "Wasmedge",
}

#: Panel keys, matching sub-figures (a) to (h) of Figs. 7-10.
PANEL_TOTAL_LATENCY = "a_total_latency_s"
PANEL_TOTAL_THROUGHPUT = "b_total_throughput_rps"
PANEL_SERIALIZATION_LATENCY = "c_serialization_latency_s"
PANEL_SERIALIZATION_THROUGHPUT = "d_serialization_throughput_rps"
PANEL_TOTAL_CPU = "e_total_cpu_pct"
PANEL_USER_CPU = "f_user_cpu_pct"
PANEL_KERNEL_CPU = "g_kernel_cpu_pct"
PANEL_RAM = "h_ram_mb"

EIGHT_PANELS = (
    PANEL_TOTAL_LATENCY,
    PANEL_TOTAL_THROUGHPUT,
    PANEL_SERIALIZATION_LATENCY,
    PANEL_SERIALIZATION_THROUGHPUT,
    PANEL_TOTAL_CPU,
    PANEL_USER_CPU,
    PANEL_KERNEL_CPU,
    PANEL_RAM,
)


def mode_label(mode: str) -> str:
    """The human-readable series name for a mode key."""
    return MODE_LABELS.get(mode, mode)


#: Cap for "infinite" serialization throughput of serialization-free modes;
#: the paper plots this panel on a log axis.
SERIALIZATION_RPS_CAP = 1.0e6


def _cpu_percent(cpu_seconds: float, reference_wall_s: float, cores: int) -> float:
    """CPU usage as a share of the shared measurement window.

    The paper samples each sandbox's cgroup over a common experiment window,
    so a runtime that finishes early and idles reports a low percentage.  The
    reference window is the slowest mode's latency at the same x value.
    """
    if reference_wall_s <= 0 or cores < 1:
        return 0.0
    return 100.0 * cpu_seconds / (reference_wall_s * cores)


def add_eight_panel_point(
    result: FigureResult,
    mode: str,
    aggregate: AggregateMetrics,
    cores: int,
    reference_wall_s: float = 0.0,
) -> None:
    """Append one sweep point (one x value, one mode) to all eight panels."""
    label = mode_label(mode)
    reference = reference_wall_s if reference_wall_s > 0 else aggregate.mean_latency_s
    serialization_rps = aggregate.mean_serialization_throughput_rps
    if serialization_rps == float("inf"):
        serialization_rps = SERIALIZATION_RPS_CAP
    result.add_point(PANEL_TOTAL_LATENCY, label, aggregate.mean_latency_s)
    result.add_point(PANEL_TOTAL_THROUGHPUT, label, aggregate.mean_throughput_rps)
    result.add_point(PANEL_SERIALIZATION_LATENCY, label, aggregate.mean_serialization_s)
    result.add_point(PANEL_SERIALIZATION_THROUGHPUT, label, serialization_rps)
    result.add_point(
        PANEL_TOTAL_CPU, label, _cpu_percent(aggregate.mean_cpu_total_s, reference, cores)
    )
    result.add_point(
        PANEL_USER_CPU, label, _cpu_percent(aggregate.mean_cpu_user_s, reference, cores)
    )
    result.add_point(
        PANEL_KERNEL_CPU, label, _cpu_percent(aggregate.mean_cpu_kernel_s, reference, cores)
    )
    result.add_point(PANEL_RAM, label, aggregate.mean_peak_memory_mb)


def add_fanout_panel_point(
    result: FigureResult,
    mode: str,
    aggregate,
    cores: int,
    reference_wall_s: float = 0.0,
) -> None:
    """Append one fan-out sweep point (a :class:`FanoutAggregate`) to all panels."""
    label = mode_label(mode)
    reference = reference_wall_s if reference_wall_s > 0 else aggregate.makespan_s
    serialization_rps = aggregate.serialization_throughput_rps
    if serialization_rps == float("inf"):
        serialization_rps = SERIALIZATION_RPS_CAP
    per_branch_serialization = (
        aggregate.serialization_s_total / aggregate.degree if aggregate.degree else 0.0
    )
    result.add_point(PANEL_TOTAL_LATENCY, label, aggregate.mean_branch_latency_s)
    result.add_point(PANEL_TOTAL_THROUGHPUT, label, aggregate.throughput_rps)
    result.add_point(PANEL_SERIALIZATION_LATENCY, label, per_branch_serialization)
    result.add_point(PANEL_SERIALIZATION_THROUGHPUT, label, serialization_rps)
    result.add_point(
        PANEL_TOTAL_CPU, label, _cpu_percent(aggregate.cpu_total_s, reference, cores)
    )
    result.add_point(
        PANEL_USER_CPU, label, _cpu_percent(aggregate.cpu_user_s_total, reference, cores)
    )
    result.add_point(
        PANEL_KERNEL_CPU, label, _cpu_percent(aggregate.cpu_kernel_s_total, reference, cores)
    )
    result.add_point(PANEL_RAM, label, aggregate.peak_memory_mb)


def payload_sweep_figure(
    figure: str,
    title: str,
    modes: Sequence[str],
    internode: bool,
    sizes_mb: Optional[Sequence[float]],
) -> FigureResult:
    """Figs. 7 and 8: the eight panels over payload sizes (all sizes when ``None``)."""
    sizes = list(sizes_mb) if sizes_mb is not None else list(DEFAULT_SWEEP_SIZES_MB)
    result = FigureResult(figure=figure, title=title, x_label="Input Size (MB)", x_values=sizes)
    sweep = sweep_pair(modes, sizes, internode=internode)
    cores = DEFAULT_COST_MODEL.cores_per_node
    for size in sizes:
        # CPU percentages are reported over a common measurement window: the
        # slowest runtime at this payload size.
        reference = max(sweep[mode][size].mean_latency_s for mode in modes)
        for mode in modes:
            add_eight_panel_point(result, mode, sweep[mode][size], cores, reference_wall_s=reference)
    return result


def fanout_sweep_figure(
    figure: str,
    placement: str,
    modes: Sequence[str],
    internode: bool,
    degrees: Optional[Sequence[int]],
) -> FigureResult:
    """Figs. 9 and 10: the eight panels over fan-out degrees (all degrees when ``None``)."""
    swept = list(degrees) if degrees is not None else list(DEFAULT_FANOUT_DEGREES)
    result = FigureResult(
        figure=figure,
        title="%s fan-out scalability with %g MB transfers" % (placement, FANOUT_PAYLOAD_MB),
        x_label="Fanout Degree",
        x_values=swept,
    )
    sweep = sweep_fanout(modes, swept, FANOUT_PAYLOAD_MB, internode=internode)
    cores = DEFAULT_COST_MODEL.cores_per_node
    for degree in swept:
        reference = max(sweep[mode][degree].makespan_s for mode in modes)
        for mode in modes:
            add_fanout_panel_point(result, mode, sweep[mode][degree], cores, reference_wall_s=reference)
    return result

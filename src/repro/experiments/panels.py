"""The eight-panel sweep figures (7-10): panel definitions and their one builder.

Figs. 7 and 8 sweep the payload size of an a->b chain, Figs. 9 and 10 the
degree of a 10 MB fan-out; each pair differs only in its modes and in
whether the functions share a node.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.experiments.harness import measure_fanout, measure_pair
from repro.experiments.results import FigureResult
from repro.metrics.records import TransferMetrics
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


def add_panel_point(
    result: FigureResult,
    mode: str,
    metrics: TransferMetrics,
    latency_s: float,
    transfers: int,
    cores: int,
    reference_wall_s: float,
) -> None:
    """Append one sweep point (one x value, one mode) to all eight panels.

    ``metrics`` is the run's record (a fan-out's sums over its branches,
    with the makespan as ``total_latency_s``), ``latency_s`` what one of its
    ``transfers`` transfers sees, and ``reference_wall_s`` the window the
    CPU percentages share.
    """
    label = mode_label(mode)
    total = metrics.total_latency_s
    serialization = metrics.serialization_s
    result.add_point(PANEL_TOTAL_LATENCY, label, latency_s)
    result.add_point(
        PANEL_TOTAL_THROUGHPUT, label, transfers / total if total > 0 else float("inf")
    )
    result.add_point(PANEL_SERIALIZATION_LATENCY, label, serialization / transfers)
    result.add_point(
        PANEL_SERIALIZATION_THROUGHPUT,
        label,
        transfers / serialization if serialization > 0 else SERIALIZATION_RPS_CAP,
    )
    result.add_point(
        PANEL_TOTAL_CPU, label, _cpu_percent(metrics.cpu_total_s, reference_wall_s, cores)
    )
    result.add_point(
        PANEL_USER_CPU, label, _cpu_percent(metrics.cpu_user_s, reference_wall_s, cores)
    )
    result.add_point(
        PANEL_KERNEL_CPU, label, _cpu_percent(metrics.cpu_kernel_s, reference_wall_s, cores)
    )
    result.add_point(PANEL_RAM, label, metrics.peak_memory_mb)


def _pair_point(mode: str, size_mb: float, internode: bool) -> Tuple[TransferMetrics, float, int]:
    metrics = measure_pair(mode, size_mb, internode=internode)
    return metrics, metrics.total_latency_s, 1


def _fanout_point(mode: str, degree: int, internode: bool) -> Tuple[TransferMetrics, float, int]:
    result = measure_fanout(mode, degree, FANOUT_PAYLOAD_MB, internode=internode)
    return result.aggregate, result.mean_branch_latency_s, result.branches


class Sweep(NamedTuple):
    """The x axis of a sweep figure and how one of its points is measured."""

    x_label: str
    defaults: Sequence
    #: ``measure(mode, x, internode)`` -> (metrics, per-transfer latency, transfers).
    measure: Callable[[str, Any, bool], Tuple[TransferMetrics, float, int]]


#: Figs. 7 and 8: a->b pairs over payload sizes.
PAYLOAD_SWEEP = Sweep("Input Size (MB)", DEFAULT_SWEEP_SIZES_MB, _pair_point)
#: Figs. 9 and 10: fan-outs of a 10 MB payload over degrees.
FANOUT_SWEEP = Sweep("Fanout Degree", DEFAULT_FANOUT_DEGREES, _fanout_point)


def sweep_figure(
    figure: str,
    title: str,
    sweep: Sweep,
    modes: Sequence[str],
    internode: bool,
    x_values: Optional[Sequence],
) -> FigureResult:
    """Figs. 7-10: the eight panels over ``x_values`` (the sweep's defaults when ``None``)."""
    xs = list(x_values) if x_values is not None else list(sweep.defaults)
    result = FigureResult(figure=figure, title=title, x_label=sweep.x_label, x_values=xs)
    cores = DEFAULT_COST_MODEL.cores_per_node
    for x in xs:
        points = [(mode,) + sweep.measure(mode, x, internode) for mode in modes]
        # CPU percentages are reported over a common measurement window: the
        # slowest runtime at this x value.
        reference = max(metrics.total_latency_s for _, metrics, _, _ in points)
        for mode, metrics, latency_s, transfers in points:
            add_panel_point(result, mode, metrics, latency_s, transfers, cores, reference)
    return result

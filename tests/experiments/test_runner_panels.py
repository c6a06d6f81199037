"""Tests for the experiment runner, the panel helpers and result rendering."""

import pytest

from repro.experiments.harness import measure_fanout, measure_pair
from repro.experiments.panels import (
    EIGHT_PANELS,
    FANOUT_SWEEP,
    PAYLOAD_SWEEP,
    SERIALIZATION_RPS_CAP,
    add_panel_point,
    mode_label,
    sweep_figure,
)
from repro.experiments.results import FigureResult
from repro.experiments.runner import QUICK_DEGREES, QUICK_SIZES_MB, render_all, run_all


def _pair_point(result, mode, metrics, reference_wall_s):
    add_panel_point(result, mode, metrics, metrics.total_latency_s, 1, 4, reference_wall_s)


def test_add_eight_panel_point_fills_every_panel():
    result = FigureResult(figure="f", title="t", x_label="MB", x_values=[10])
    metrics = measure_pair("roadrunner-user", payload_mb=10)
    _pair_point(result, "roadrunner-user", metrics, metrics.total_latency_s)
    assert set(result.panels) == set(EIGHT_PANELS)
    for panel in EIGHT_PANELS:
        assert len(result.series(panel, "RoadRunner (User space)")) == 1
    assert result.value("b_total_throughput_rps", "RoadRunner (User space)", 10) == (
        metrics.throughput_rps
    )


def test_serialization_throughput_is_capped_for_serialization_free_modes():
    result = FigureResult(figure="f", title="t", x_label="MB", x_values=[10])
    metrics = measure_pair("roadrunner-user", payload_mb=10)
    _pair_point(result, "roadrunner-user", metrics, metrics.total_latency_s)
    value = result.value("d_serialization_throughput_rps", "RoadRunner (User space)", 10)
    assert value <= SERIALIZATION_RPS_CAP


def test_serialization_free_record_plots_the_cap_and_a_float_zero():
    # A window with no serialization charge sums to the int 0.
    metrics = measure_pair("roadrunner-user", payload_mb=10)._replace(serialization_s=0)
    result = FigureResult(figure="f", title="t", x_label="MB", x_values=[10])
    _pair_point(result, "roadrunner-user", metrics, metrics.total_latency_s)
    label = "RoadRunner (User space)"
    assert result.value("d_serialization_throughput_rps", label, 10) == SERIALIZATION_RPS_CAP
    latency = result.value("c_serialization_latency_s", label, 10)
    assert latency == 0.0 and type(latency) is float


def test_reference_window_scales_cpu_percentages():
    metrics = measure_pair("roadrunner-user", payload_mb=10)
    short_window = FigureResult(figure="f", title="t", x_label="MB", x_values=[10])
    long_window = FigureResult(figure="f", title="t", x_label="MB", x_values=[10])
    _pair_point(short_window, "roadrunner-user", metrics, metrics.total_latency_s)
    _pair_point(long_window, "roadrunner-user", metrics, 10 * metrics.total_latency_s)
    short_cpu = short_window.value("e_total_cpu_pct", "RoadRunner (User space)", 10)
    long_cpu = long_window.value("e_total_cpu_pct", "RoadRunner (User space)", 10)
    assert long_cpu == pytest.approx(short_cpu / 10)


def test_add_fanout_panel_point_uses_mean_branch_latency():
    result = FigureResult(figure="f", title="t", x_label="degree", x_values=[8])
    run = measure_fanout("roadrunner-kernel", degree=8, payload_mb=1)
    add_panel_point(
        result, "roadrunner-kernel", run.aggregate, run.mean_branch_latency_s, run.branches,
        4, run.total_latency_s,
    )
    label = "RoadRunner (Kernel space)"
    assert result.value("a_total_latency_s", label, 8) == run.mean_branch_latency_s
    assert result.value("b_total_throughput_rps", label, 8) == run.throughput_rps
    assert result.value("c_serialization_latency_s", label, 8) == pytest.approx(
        run.aggregate.serialization_s / 8
    )


def test_sweep_figure_measures_every_mode_at_every_size():
    modes = ["roadrunner-user", "wasmedge-http"]
    figure = sweep_figure("f", "t", PAYLOAD_SWEEP, modes, internode=False, x_values=[1, 10])
    assert figure.x_label == "Input Size (MB)" and figure.x_values == [1, 10]
    wasm = mode_label("wasmedge-http")
    assert figure.value("a_total_latency_s", wasm, 10) > figure.value("a_total_latency_s", wasm, 1)
    slowest = measure_pair("wasmedge-http", 10)
    user = measure_pair("roadrunner-user", 10)
    assert figure.value("a_total_latency_s", wasm, 10) == slowest.total_latency_s
    # CPU percentages share one window at each x value: the slowest mode's latency.
    window = slowest.total_latency_s * 4
    assert figure.value("e_total_cpu_pct", mode_label("roadrunner-user"), 10) == pytest.approx(
        100.0 * user.cpu_total_s / window
    )


def test_sweep_figure_measures_every_mode_at_every_degree():
    figure = sweep_figure(
        "f", "t", FANOUT_SWEEP, ["roadrunner-kernel"], internode=False, x_values=[1, 4]
    )
    assert figure.x_label == "Fanout Degree" and figure.x_values == [1, 4]
    kernel = mode_label("roadrunner-kernel")
    # Four branches over one makespan: more requests per second than one.
    assert figure.value("b_total_throughput_rps", kernel, 4) > figure.value(
        "b_total_throughput_rps", kernel, 1
    )


def test_run_all_quick_produces_every_figure():
    results = run_all(quick=True)
    assert set(results) == {"fig2a", "fig2b", "fig6", "fig7", "fig8", "fig9", "fig10"}
    assert results["fig7"].x_values == list(QUICK_SIZES_MB)
    assert results["fig9"].x_values == list(QUICK_DEGREES)
    rendered = render_all(results)
    for name in results:
        assert name in rendered

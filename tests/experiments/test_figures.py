"""Tests for the per-figure experiment runners (structure and basic shape)."""

import pytest

from repro.experiments import run_fig2a, run_fig2b, run_fig6, run_fig7, run_fig8, run_fig9, run_fig10
from repro.experiments.panels import EIGHT_PANELS, MODE_LABELS, mode_label
from repro.experiments.results import FigureResult, ResultError


def test_mode_labels_cover_every_mode():
    assert mode_label("roadrunner-user") == "RoadRunner (User space)"
    assert mode_label("unknown") == "unknown"
    assert len(MODE_LABELS) == 5


def test_figure_result_accessors():
    result = FigureResult(figure="f", title="t", x_label="x", x_values=[1, 2])
    result.add_point("panel", "series", 0.5)
    result.add_point("panel", "series", 0.7)
    assert result.series("panel", "series") == [0.5, 0.7]
    assert result.value("panel", "series", 2) == 0.7
    assert result.modes == ["series"]
    with pytest.raises(ResultError):
        result.panel("missing")
    with pytest.raises(ResultError):
        result.series("panel", "missing")
    with pytest.raises(ResultError):
        result.value("panel", "series", 99)
    assert "panel" in result.to_text()


def test_fig2a_shows_wasm_cold_start_and_size_advantage():
    result = run_fig2a()
    for function in result.x_values:
        assert result.value("cold_start_s", "Wasm", function) < result.value(
            "cold_start_s", "Cont", function
        )
        assert result.value("image_size_mb", "Wasm", function) < result.value(
            "image_size_mb", "Cont", function
        )
    # Without WASI, Wasm executes faster; with WASI (Resize Image) it is slower.
    assert result.value("execution_s", "Wasm", "Hello World") < result.value(
        "execution_s", "Cont", "Hello World"
    )
    assert result.value("execution_s", "Wasm", "Resize Image") > result.value(
        "execution_s", "Cont", "Resize Image"
    )


def test_fig2b_serialization_share_is_higher_for_wasm():
    result = run_fig2b()
    for size in result.x_values:
        wasm_share = result.value("normalized_breakdown_pct", "Wasm Serialization", size)
        cont_share = result.value("normalized_breakdown_pct", "Cont Serialization", size)
        assert wasm_share > cont_share
        assert cont_share < 35.0
    # At the larger payload, serialization dominates the Wasm transfer
    # (up to ~60 % in the paper's measurements).
    assert result.value("normalized_breakdown_pct", "Wasm Serialization", 60) > 50.0


def test_fig6_breakdown_structure_and_ordering():
    result = run_fig6()
    totals = result.panel("a_latency_breakdown_s")["Total"]
    rr, rc, wasm = totals
    assert rr < rc < wasm
    shares = result.panel("c_normalized_share_pct")
    for runtime_index in range(3):
        total_share = sum(shares[series][runtime_index] for series in shares)
        assert total_share == pytest.approx(100.0, abs=1.0)


def test_fig7_has_eight_panels_and_four_series():
    result = run_fig7(sizes_mb=[1, 10])
    assert set(result.panels) == set(EIGHT_PANELS)
    for panel in EIGHT_PANELS:
        series = result.panel(panel)
        assert len(series) == 4
        for values in series.values():
            assert len(values) == 2


def test_fig8_has_eight_panels_and_three_series():
    result = run_fig8(sizes_mb=[10])
    assert set(result.panels) == set(EIGHT_PANELS)
    for panel in EIGHT_PANELS:
        assert len(result.panel(panel)) == 3


def test_fig9_latency_grows_with_fanout_degree():
    result = run_fig9(degrees=[1, 10])
    for series, values in result.panel("a_total_latency_s").items():
        assert values[1] >= values[0]


def test_fig10_throughput_positive_and_wasm_is_slowest():
    result = run_fig10(degrees=[5])
    latency = result.panel("a_total_latency_s")
    assert latency["Wasmedge"][0] > latency["RoadRunner (Network)"][0]
    for values in result.panel("b_total_throughput_rps").values():
        assert values[0] > 0

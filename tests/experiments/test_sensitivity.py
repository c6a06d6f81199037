"""Tests for the sensitivity-analysis sweeps."""

import pytest

from repro.experiments.sensitivity import (
    SensitivityError,
    default_sensitivity_suite,
    sweep_parameter,
)
from repro.sim.costs import DEFAULT_COST_MODEL


def test_sweep_validation():
    with pytest.raises(SensitivityError):
        sweep_parameter("network_bandwidth", [])
    with pytest.raises(SensitivityError):
        sweep_parameter("not_a_parameter", [1.0])


def test_network_bandwidth_sweep_shrinks_the_gap_on_slow_links():
    base = DEFAULT_COST_MODEL.network_bandwidth
    result = sweep_parameter(
        "network_bandwidth",
        [base * 0.1, base, base * 10],
        payload_mb=50,
    )
    improvements = [point.improvement_pct for point in result.points]
    # Roadrunner always wins, but the advantage over WasmEdge is smallest when
    # the wire is slow (everything is wire-bound) and largest when it is fast.
    assert all(value > 0 for value in improvements)
    assert improvements[0] < improvements[-1]
    assert "Sensitivity" in result.to_text()


def test_wasm_io_bandwidth_sweep_can_flip_the_runc_comparison():
    base = DEFAULT_COST_MODEL.wasm_memory_copy_bandwidth
    result = sweep_parameter(
        "wasm_memory_copy_bandwidth",
        [base * 0.02, base, base * 4],
        roadrunner_mode="roadrunner-user",
        baseline_mode="runc-http",
        internode=False,
        payload_mb=100,
    )
    improvements = [point.improvement_pct for point in result.points]
    # When host access to linear memory is made pathologically slow, the
    # user-space mode loses to RunC; at the calibrated value it wins.
    assert improvements[0] < improvements[1] < improvements[2]
    assert improvements[0] <= 0 < improvements[1]
    assert result.points[0].value == pytest.approx(base * 0.02)


def test_default_suite_contains_three_sweeps():
    suite = default_sensitivity_suite(payload_mb=20)
    assert set(suite) == {
        "network_bandwidth",
        "wasm_memory_copy_bandwidth",
        "wasm_serialize_bandwidth",
    }
    for result in suite.values():
        assert len(result.points) == 5

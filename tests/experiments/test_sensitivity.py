"""Tests for the sensitivity-analysis sweeps."""

import pytest

from repro.experiments.sensitivity import SensitivityError, sweep_parameter
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

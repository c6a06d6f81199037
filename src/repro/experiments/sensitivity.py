"""Sensitivity analysis: how Roadrunner's advantage depends on the testbed.

The reproduction's absolute numbers come from a calibrated cost model, so the
honest question is: *which conclusions survive when the calibration moves?*
This module sweeps one cost-model parameter at a time (network bandwidth,
Wasm-I/O bandwidth, serialization speed, payload size), re-measures the
Roadrunner-vs-baseline improvement at every point, and reports where the
advantage grows, shrinks or crosses zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.harness import measure_pair
from repro.metrics.report import format_table, improvement_percent
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL


class SensitivityError(ValueError):
    """Raised for invalid sweep definitions."""


@dataclass(frozen=True)
class SensitivityPoint:
    """One point of a sensitivity sweep."""

    parameter: str
    value: float
    roadrunner_latency_s: float
    baseline_latency_s: float

    @property
    def improvement_pct(self) -> float:
        return improvement_percent(self.baseline_latency_s, self.roadrunner_latency_s)


@dataclass(frozen=True)
class SensitivityResult:
    """A full sweep of one parameter."""

    parameter: str
    roadrunner_mode: str
    baseline_mode: str
    payload_mb: float
    internode: bool
    points: Sequence[SensitivityPoint]

    def to_text(self) -> str:
        rows = [
            [point.value, point.roadrunner_latency_s, point.baseline_latency_s,
             round(point.improvement_pct, 1)]
            for point in self.points
        ]
        return format_table(
            [self.parameter, "%s (s)" % self.roadrunner_mode, "%s (s)" % self.baseline_mode,
             "improvement %"],
            rows,
            title="Sensitivity of %s vs %s to %s (%g MB, %s)" % (
                self.roadrunner_mode,
                self.baseline_mode,
                self.parameter,
                self.payload_mb,
                "inter-node" if self.internode else "intra-node",
            ),
        )


def sweep_parameter(
    parameter: str,
    values: Sequence[float],
    roadrunner_mode: str = "roadrunner-network",
    baseline_mode: str = "wasmedge-http",
    payload_mb: float = 100,
    internode: bool = True,
    base_model: CostModel = DEFAULT_COST_MODEL,
) -> SensitivityResult:
    """Re-measure the Roadrunner-vs-baseline gap for each value of ``parameter``."""
    if not values:
        raise SensitivityError("a sweep needs at least one value")
    if parameter not in base_model.__dataclass_fields__:
        raise SensitivityError("unknown cost-model parameter %r" % parameter)
    points: List[SensitivityPoint] = []
    for value in values:
        model = base_model.with_overrides(**{parameter: value})
        roadrunner = measure_pair(roadrunner_mode, payload_mb, internode=internode, cost_model=model)
        baseline = measure_pair(baseline_mode, payload_mb, internode=internode, cost_model=model)
        points.append(
            SensitivityPoint(
                parameter=parameter,
                value=value,
                roadrunner_latency_s=roadrunner.mean_latency_s,
                baseline_latency_s=baseline.mean_latency_s,
            )
        )
    return SensitivityResult(
        parameter=parameter,
        roadrunner_mode=roadrunner_mode,
        baseline_mode=baseline_mode,
        payload_mb=payload_mb,
        internode=internode,
        points=points,
    )


def default_sensitivity_suite(payload_mb: float = 100) -> Dict[str, SensitivityResult]:
    """The three sweeps DESIGN.md calls out, with sensible ranges."""
    model = DEFAULT_COST_MODEL
    return {
        "network_bandwidth": sweep_parameter(
            "network_bandwidth",
            [model.network_bandwidth * factor for factor in (0.1, 0.5, 1.0, 2.0, 8.0)],
            payload_mb=payload_mb,
        ),
        "wasm_memory_copy_bandwidth": sweep_parameter(
            "wasm_memory_copy_bandwidth",
            [model.wasm_memory_copy_bandwidth * factor for factor in (0.25, 0.5, 1.0, 2.0, 4.0)],
            roadrunner_mode="roadrunner-user",
            baseline_mode="runc-http",
            internode=False,
            payload_mb=payload_mb,
        ),
        "wasm_serialize_bandwidth": sweep_parameter(
            "wasm_serialize_bandwidth",
            [model.wasm_serialize_bandwidth * factor for factor in (0.5, 1.0, 2.0, 4.0, 16.0)],
            roadrunner_mode="roadrunner-user",
            baseline_mode="wasmedge-http",
            internode=False,
            payload_mb=payload_mb,
        ),
    }

"""Sensitivity analysis: how Roadrunner's advantage depends on the testbed.

The reproduction's absolute numbers come from a calibrated cost model, so the
honest question is: *which conclusions survive when the calibration moves?*
This module sweeps one cost-model parameter at a time, re-measures the
improvement of Roadrunner's network mode over WasmEdge at every point, and
reports where the advantage grows, shrinks or crosses zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.harness import measure_pair
from repro.metrics.report import format_table, improvement_percent
from repro.sim.costs import DEFAULT_COST_MODEL


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


#: The comparison every sweep re-measures: Roadrunner's network mode against
#: WasmEdge over HTTP, across nodes.
ROADRUNNER_MODE = "roadrunner-network"
BASELINE_MODE = "wasmedge-http"


@dataclass(frozen=True)
class SensitivityResult:
    """A full sweep of one parameter."""

    parameter: str
    payload_mb: float
    points: Sequence[SensitivityPoint]

    def to_text(self) -> str:
        rows = [
            [point.value, point.roadrunner_latency_s, point.baseline_latency_s,
             round(point.improvement_pct, 1)]
            for point in self.points
        ]
        return format_table(
            [self.parameter, "%s (s)" % ROADRUNNER_MODE, "%s (s)" % BASELINE_MODE,
             "improvement %"],
            rows,
            title="Sensitivity of %s vs %s to %s (%g MB, inter-node)" % (
                ROADRUNNER_MODE, BASELINE_MODE, self.parameter, self.payload_mb,
            ),
        )


def sweep_parameter(
    parameter: str, values: Sequence[float], payload_mb: float = 100
) -> SensitivityResult:
    """Re-measure the Roadrunner-vs-baseline gap for each value of ``parameter``."""
    if not values:
        raise SensitivityError("a sweep needs at least one value")
    if parameter not in DEFAULT_COST_MODEL.__dataclass_fields__:
        raise SensitivityError("unknown cost-model parameter %r" % parameter)
    points: List[SensitivityPoint] = []
    for value in values:
        model = DEFAULT_COST_MODEL.with_overrides(**{parameter: value})
        roadrunner = measure_pair(ROADRUNNER_MODE, payload_mb, internode=True, cost_model=model)
        baseline = measure_pair(BASELINE_MODE, payload_mb, internode=True, cost_model=model)
        points.append(
            SensitivityPoint(
                parameter=parameter,
                value=value,
                roadrunner_latency_s=roadrunner.mean_latency_s,
                baseline_latency_s=baseline.mean_latency_s,
            )
        )
    return SensitivityResult(parameter=parameter, payload_mb=payload_mb, points=points)

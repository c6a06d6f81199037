"""Measurement harness: run setups, measure one configuration, build sweeps.

The paper executes every configuration 10 times and reports the mean
(Sec. 6.2).  The reproduction is deterministic, so every repetition would
yield the same sample: each configuration runs once, in a freshly built
environment — nothing is shared between measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.experiments.environment import TransferSetup, build_fanout_setup, build_pair_setup
from repro.metrics.collector import AggregateMetrics, aggregate_samples
from repro.platform.invoker import WorkflowResult
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL
from repro.workloads.generators import make_payload


@dataclass(frozen=True)
class FanoutAggregate:
    """Aggregated measurements of a fan-out workflow.

    Latency is the mean per-branch completion time (what one request sees);
    throughput counts all branches completed over the workflow makespan; CPU,
    serialization and memory are totals across branches.
    """

    mode: str
    degree: int
    payload_bytes: int
    mean_branch_latency_s: float
    makespan_s: float
    serialization_s_total: float
    cpu_user_s_total: float
    cpu_kernel_s_total: float
    peak_memory_mb: float

    @property
    def throughput_rps(self) -> float:
        if self.makespan_s <= 0:
            return float("inf")
        return self.degree / self.makespan_s

    @property
    def serialization_throughput_rps(self) -> float:
        if self.serialization_s_total <= 0:
            return float("inf")
        return self.degree / self.serialization_s_total

    @property
    def cpu_total_s(self) -> float:
        return self.cpu_user_s_total + self.cpu_kernel_s_total


def run_setup(setup: TransferSetup, payload_mb: float) -> WorkflowResult:
    """Execute the setup's workflow once with a payload of ``payload_mb``."""
    return setup.invoker.invoke(setup.workflow, make_payload(payload_mb))


def measure_pair(
    mode: str,
    payload_mb: float,
    internode: bool = False,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> AggregateMetrics:
    """Metrics for a chained a->b transfer in ``mode``."""
    setup = build_pair_setup(mode, internode=internode, cost_model=cost_model)
    return aggregate_samples([run_setup(setup, payload_mb).aggregate])


def measure_fanout(
    mode: str, degree: int, payload_mb: float, internode: bool = False
) -> FanoutAggregate:
    """Aggregated metrics for a fan-out of ``degree`` transfers in ``mode``."""
    result = run_setup(build_fanout_setup(mode, degree=degree, internode=internode), payload_mb)
    aggregate = result.aggregate
    return FanoutAggregate(
        mode=mode,
        degree=degree,
        payload_bytes=aggregate.payload_bytes,
        mean_branch_latency_s=result.mean_branch_latency_s,
        makespan_s=result.total_latency_s,
        serialization_s_total=aggregate.serialization_s,
        cpu_user_s_total=aggregate.cpu_user_s,
        cpu_kernel_s_total=aggregate.cpu_kernel_s,
        peak_memory_mb=aggregate.peak_memory_mb,
    )


def sweep_pair(
    modes: Sequence[str], sizes_mb: Sequence[float], internode: bool = False
) -> Dict[str, Dict[float, AggregateMetrics]]:
    """Run the payload-size sweep for every mode; keyed by mode then size."""
    return {
        mode: {size: measure_pair(mode, size, internode=internode) for size in sizes_mb}
        for mode in modes
    }


def sweep_fanout(
    modes: Sequence[str], degrees: Sequence[int], payload_mb: float, internode: bool = False
) -> Dict[str, Dict[int, FanoutAggregate]]:
    """Run the fan-out sweep for every mode; keyed by mode then degree."""
    return {
        mode: {
            degree: measure_fanout(mode, degree, payload_mb, internode=internode)
            for degree in degrees
        }
        for mode in modes
    }

"""Measurement harness: run setups and measure one configuration.

The paper executes every configuration 10 times and reports the mean
(Sec. 6.2).  The reproduction is deterministic, so every repetition would
yield the same sample: each configuration runs once, in a freshly built
environment, and every consumer reads the substrate's own record of that
run — a :class:`~repro.metrics.records.TransferMetrics` for an a->b pair, a
:class:`~repro.platform.invoker.WorkflowResult` for a fan-out.  Measurements
share no mutable state; what ``build_pair_setup`` and ``build_fanout_setup``
reuse across them (function specs, workflows, stateless codecs) is
immutable — see :mod:`repro.experiments.environment`.
"""

from __future__ import annotations

from repro.experiments.environment import TransferSetup, build_fanout_setup, build_pair_setup
from repro.metrics.records import TransferMetrics
from repro.platform.invoker import WorkflowResult
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL
from repro.workloads.generators import make_payload


def run_setup(setup: TransferSetup, payload_mb: float) -> WorkflowResult:
    """Execute the setup's workflow once with a payload of ``payload_mb``."""
    return setup.invoker.invoke(setup.workflow, make_payload(payload_mb))


def measure_pair(
    mode: str,
    payload_mb: float,
    internode: bool = False,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> TransferMetrics:
    """Metrics of one chained a->b transfer in ``mode``."""
    setup = build_pair_setup(mode, internode=internode, cost_model=cost_model)
    return run_setup(setup, payload_mb).aggregate


def measure_fanout(
    mode: str, degree: int, payload_mb: float, internode: bool = False
) -> WorkflowResult:
    """One fan-out of ``degree`` transfers in ``mode``.

    ``total_latency_s`` is the makespan, ``mean_branch_latency_s`` what one
    branch sees, and ``aggregate`` sums CPU, serialization and copies over
    the branches.
    """
    return run_setup(build_fanout_setup(mode, degree=degree, internode=internode), payload_mb)

"""The invoker: executes workflows over deployed functions and a channel.

Sequential workflows chain transfers edge by edge; fan-out workflows run one
transfer per branch and combine them with a bounded-concurrency makespan
(:class:`~repro.sim.engine.ParallelTracks`), reflecting how the runtimes
differ: a single shared Wasm VM serialises all branch work on one thread,
while per-sandbox deployments spread CPU work across the node's cores.  CPU
seconds, copies and memory always aggregate across branches regardless of
overlap — work does not disappear by being parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.metrics.records import TransferMetrics
from repro.payload import Payload
from repro.platform.channel import DataPassingChannel, TransferOutcome
from repro.platform.deployment import DeployedFunction
from repro.platform.orchestrator import Orchestrator
from repro.platform.workflow import InvocationPattern, Workflow
from repro.sim.engine import ParallelTracks


class InvokerError(RuntimeError):
    """Raised when a workflow references functions that are not deployed."""


@dataclass(frozen=True)
class WorkflowResult:
    """Outcome of one workflow execution.

    ``total_latency_s`` is the makespan of the whole workflow.  For parallel
    workflows ``mean_branch_latency_s`` is the mean per-branch completion time
    (the latency an individual request observes under contention), which is
    what the paper's fan-out latency panels report, while throughput counts
    all branches completed over the makespan.
    """

    workflow: Workflow
    outcomes: Dict[str, TransferOutcome]
    total_latency_s: float
    aggregate: TransferMetrics
    mean_branch_latency_s: float = 0.0
    branches: int = 1

    @property
    def throughput_rps(self) -> float:
        """Requests completed per second over the workflow makespan."""
        if self.total_latency_s <= 0:
            return float("inf")
        return self.branches / self.total_latency_s


class Invoker:
    """Drives workflows through a data-passing channel."""

    def __init__(self, orchestrator: Orchestrator, channel: DataPassingChannel) -> None:
        self.orchestrator = orchestrator
        self.channel = channel

    # -- public API -----------------------------------------------------------------

    def invoke(self, workflow: Workflow, payload: Payload) -> WorkflowResult:
        """Execute ``workflow``, sending ``payload`` along every edge."""
        if workflow.pattern is InvocationPattern.SEQUENTIAL:
            return self._invoke_sequential(workflow, payload)
        return self._invoke_parallel(workflow, payload)

    # -- sequential -----------------------------------------------------------------------

    def _invoke_sequential(self, workflow: Workflow, payload: Payload) -> WorkflowResult:
        outcomes: Dict[str, TransferOutcome] = {}
        current = payload
        for source_name, target_name in workflow.edges:
            source, target = self._resolve(source_name), self._resolve(target_name)
            outcome = self.channel.transfer(source, target, current)
            outcomes["%s->%s" % (source_name, target_name)] = outcome
            current = outcome.delivered
        total = sum(o.metrics.total_latency_s for o in outcomes.values())
        aggregate = _combine(list(outcomes.values()), total, self.channel.mode, payload.size)
        return WorkflowResult(
            workflow=workflow,
            outcomes=outcomes,
            total_latency_s=total,
            aggregate=aggregate,
            mean_branch_latency_s=total,
            branches=1,
        )

    # -- fan-out / fan-in ---------------------------------------------------------------------

    def _invoke_parallel(self, workflow: Workflow, payload: Payload) -> WorkflowResult:
        outcomes: Dict[str, TransferOutcome] = {}
        tracks = ParallelTracks(workers=self._workers(workflow))
        per_branch_overhead = getattr(self.channel, "fanout_overhead_s", 0.0)
        for source_name, target_name in workflow.edges:
            source, target = self._resolve(source_name), self._resolve(target_name)
            outcome = self.channel.transfer(source, target, payload)
            outcomes["%s->%s" % (source_name, target_name)] = outcome
            metrics = outcome.metrics
            cpu = metrics.cpu_total_s + per_branch_overhead
            wait = max(metrics.total_latency_s - metrics.cpu_total_s, 0.0)
            tracks.add(cpu, wait)
        total = tracks.makespan()
        aggregate = _combine(list(outcomes.values()), total, self.channel.mode, payload.size)
        return WorkflowResult(
            workflow=workflow,
            outcomes=outcomes,
            total_latency_s=total,
            aggregate=aggregate,
            mean_branch_latency_s=tracks.mean_completion(),
            branches=len(workflow.edges),
        )

    def _workers(self, workflow: Workflow) -> int:
        """Concurrency available to the fan-out branches."""
        if getattr(self.channel, "single_threaded", False):
            return 1
        # Branch work spreads over the cores of the node hosting the source.
        source_name = workflow.edges[0][0]
        source = self._resolve(source_name)
        node = self.orchestrator.cluster.node(source.node_name)
        return max(1, node.cores)

    def _resolve(self, name: str) -> DeployedFunction:
        try:
            return self.orchestrator.deployment(name)
        except Exception as exc:
            raise InvokerError("workflow references undeployed function %r" % name) from exc


def _combine(
    outcomes: Sequence[TransferOutcome],
    total_latency_s: float,
    mode: str,
    payload_bytes: int,
) -> TransferMetrics:
    """Aggregate per-edge metrics into one workflow-level record."""
    if not outcomes:
        raise InvokerError("cannot combine zero outcomes")
    breakdown: Dict[str, float] = {}
    node_seconds: Dict[str, float] = {}
    for outcome in outcomes:
        for key, value in outcome.metrics.breakdown.items():
            breakdown[key] = breakdown.get(key, 0.0) + value
        # Per-node attribution survives aggregation: each edge already knows
        # which ledger shards its charges landed on.
        for node, value in outcome.metrics.node_seconds.items():
            node_seconds[node] = node_seconds.get(node, 0.0) + value
    metrics = [o.metrics for o in outcomes]
    return TransferMetrics(
        mode=mode,
        payload_bytes=payload_bytes,
        total_latency_s=total_latency_s,
        serialization_s=sum(m.serialization_s for m in metrics),
        wasm_io_s=sum(m.wasm_io_s for m in metrics),
        transfer_s=sum(m.transfer_s for m in metrics),
        cpu_user_s=sum(m.cpu_user_s for m in metrics),
        cpu_kernel_s=sum(m.cpu_kernel_s for m in metrics),
        copied_bytes=sum(m.copied_bytes for m in metrics),
        reference_bytes=sum(m.reference_bytes for m in metrics),
        syscalls=sum(m.syscalls for m in metrics),
        context_switches=sum(m.context_switches for m in metrics),
        peak_memory_mb=max(m.peak_memory_mb for m in metrics),
        breakdown=breakdown,
        node_seconds=node_seconds,
    )

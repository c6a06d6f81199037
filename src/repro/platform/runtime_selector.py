"""Dynamic runtime selection (the paper's future work, Sec. 9).

"Our future work will focus on developing Roadrunner into a dynamic
virtualization runtime that can autonomously select the runtime type, e.g.,
container and Wasm, and select the most suitable runtime for specific
serverless workflows based on workload and environment characteristics."

This module implements that selector on top of the simulator: given a
workflow profile (payload size, chain length, how often a cold start is
paid, whether the stages can be colocated), it runs one a->b transfer of the
payload in every candidate mode and reads the substrate's transfer record,
adds the runtime's own cold-start latency weighted by how often it is paid,
and recommends the cheapest candidate.  Every estimate is therefore the
number the figures would report for the same hop.  A payload larger than a
Wasm linear memory raises the substrate's
:class:`~repro.wasm.linear_memory.OutOfMemoryError` for the Wasm candidates;
``repro select`` bounds ``--payload-mb`` below that size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.container.image import ContainerImage, MiB
from repro.experiments.environment import INTER_NODE_MODES, INTRA_NODE_MODES
from repro.experiments.harness import measure_pair
from repro.platform.cluster import Cluster
from repro.wasm.module import WasmModule
from repro.wasm.runtime import RuntimeKind


class SelectorError(ValueError):
    """Raised for invalid workload profiles."""


class DataPassingMode(enum.Enum):
    """How the chained stages exchange data in a candidate configuration."""

    HTTP = "http"
    ROADRUNNER_USER = "roadrunner_user"
    ROADRUNNER_KERNEL = "roadrunner_kernel"
    ROADRUNNER_NETWORK = "roadrunner_network"


#: Candidate label -> (simulated mode, runtime, data passing), in the order
#: candidates are listed (the first of equally cheap candidates wins).
CANDIDATES = {
    "runc+http": ("runc-http", RuntimeKind.RUNC, DataPassingMode.HTTP),
    "wasm+http": ("wasmedge-http", RuntimeKind.WASMEDGE, DataPassingMode.HTTP),
    "wasm+roadrunner-user": (
        "roadrunner-user", RuntimeKind.ROADRUNNER, DataPassingMode.ROADRUNNER_USER
    ),
    "wasm+roadrunner-kernel": (
        "roadrunner-kernel", RuntimeKind.ROADRUNNER, DataPassingMode.ROADRUNNER_KERNEL
    ),
    "wasm+roadrunner-network": (
        "roadrunner-network", RuntimeKind.ROADRUNNER, DataPassingMode.ROADRUNNER_NETWORK
    ),
}


@dataclass(frozen=True)
class WorkflowProfile:
    """What the selector needs to know about a workflow."""

    #: Mean payload exchanged between consecutive stages, in bytes.
    payload_bytes: int
    #: Number of data-passing hops per invocation (stages - 1).
    hops: int = 1
    #: Fraction of invocations that pay a cold start (0..1).
    cold_start_fraction: float = 0.01
    #: Whether all stages can be placed on one node (same trust domain).
    colocatable: bool = True

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise SelectorError("payload_bytes must be positive")
        if self.hops < 1:
            raise SelectorError("a workflow needs at least one hop")
        if not 0.0 <= self.cold_start_fraction <= 1.0:
            raise SelectorError("cold_start_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class RuntimeRecommendation:
    """The selector's verdict for one workflow."""

    runtime: RuntimeKind
    data_passing: DataPassingMode
    estimated_latency_s: float
    per_candidate_latency_s: Dict[str, float]
    rationale: str


class RuntimeSelector:
    """Prices each candidate with the simulator and picks the cheapest."""

    def __init__(self) -> None:
        # One cold start of each runtime, as the substrate charges it for the
        # default images (a ~77 MiB container, a ~3.19 MB Wasm binary).
        node = Cluster.single_node().node("node-a")
        wasm = node.wasm_runtime.cold_start_time(WasmModule(name="selector.wasm"))
        self.cold_start_s = {
            RuntimeKind.RUNC: node.runc.cold_start_time(ContainerImage(name="selector:latest")),
            RuntimeKind.WASMEDGE: wasm,
            RuntimeKind.ROADRUNNER: wasm,
        }

    def evaluate(self, profile: WorkflowProfile) -> Dict[str, float]:
        """Per-invocation latency estimate for every candidate configuration."""
        internode = not profile.colocatable
        modes = INTER_NODE_MODES if internode else INTRA_NODE_MODES
        payload_mb = profile.payload_bytes / MiB
        return {
            label: profile.hops * measure_pair(mode, payload_mb, internode=internode).total_latency_s
            + profile.cold_start_fraction * self.cold_start_s[runtime]
            for label, (mode, runtime, _) in CANDIDATES.items()
            if mode in modes
        }

    def recommend(self, profile: WorkflowProfile) -> RuntimeRecommendation:
        """Pick the cheapest candidate for the profile."""
        candidates = self.evaluate(profile)
        best_name = min(candidates, key=candidates.get)
        _, runtime, data_passing = CANDIDATES[best_name]
        return RuntimeRecommendation(
            runtime=runtime,
            data_passing=data_passing,
            estimated_latency_s=candidates[best_name],
            per_candidate_latency_s=candidates,
            rationale=self._rationale(profile, best_name, candidates),
        )

    @staticmethod
    def _rationale(profile: WorkflowProfile, best: str, candidates: Dict[str, float]) -> str:
        ordered: List[str] = sorted(candidates, key=candidates.get)
        runner_up = ordered[1] if len(ordered) > 1 else best
        margin = candidates[runner_up] / candidates[best] if candidates[best] > 0 else float("inf")
        drivers = []
        if profile.cold_start_fraction > 0.2:
            drivers.append("frequent cold starts favour small Wasm binaries")
        if profile.payload_bytes >= 8 * 1024 * 1024:
            drivers.append("large payloads make serialization-free transfer decisive")
        if not profile.colocatable:
            drivers.append("stages cannot be colocated, so the network path applies")
        if not drivers:
            drivers.append("all candidates are close; the cheapest estimate wins")
        return "%s is %.2fx cheaper than %s; %s" % (best, margin, runner_up, "; ".join(drivers))

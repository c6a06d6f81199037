"""Dynamic runtime selection (the paper's future work, Sec. 9).

"Our future work will focus on developing Roadrunner into a dynamic
virtualization runtime that can autonomously select the runtime type, e.g.,
container and Wasm, and select the most suitable runtime for specific
serverless workflows based on workload and environment characteristics."

This module implements that selector as a cost-model-driven estimator: given
a workflow profile (payload size, invocation rate, chain length, how often a
cold start is paid, whether the stages can be colocated), it estimates the
per-invocation cost of each candidate configuration and recommends one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.sim.costs import DEFAULT_COST_MODEL
from repro.wasm.runtime import RuntimeKind


class SelectorError(ValueError):
    """Raised for invalid workload profiles."""


class DataPassingMode(enum.Enum):
    """How the chained stages exchange data in a candidate configuration."""

    HTTP = "http"
    ROADRUNNER_USER = "roadrunner_user"
    ROADRUNNER_KERNEL = "roadrunner_kernel"
    ROADRUNNER_NETWORK = "roadrunner_network"


@dataclass(frozen=True)
class WorkflowProfile:
    """What the selector needs to know about a workflow."""

    #: Mean payload exchanged between consecutive stages, in bytes.
    payload_bytes: int
    #: Invocations per second the workflow sustains.
    invocations_per_second: float = 1.0
    #: Number of data-passing hops per invocation (stages - 1).
    hops: int = 1
    #: Fraction of invocations that pay a cold start (0..1).
    cold_start_fraction: float = 0.01
    #: Whether all stages can be placed on one node (same trust domain).
    colocatable: bool = True
    #: Container image size (bytes) if packaged as a container.
    container_image_bytes: int = 77 * 1024 * 1024
    #: Wasm binary size (bytes) if packaged as Wasm.
    wasm_binary_bytes: int = 3_190_000

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise SelectorError("payload_bytes must be positive")
        if self.invocations_per_second <= 0:
            raise SelectorError("invocations_per_second must be positive")
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
    """Estimates per-invocation latency for each candidate and picks the best."""

    # -- per-candidate estimators ------------------------------------------------

    def _cold_start(self, profile: WorkflowProfile, runtime: RuntimeKind) -> float:
        model = DEFAULT_COST_MODEL
        if runtime is RuntimeKind.RUNC:
            unpack = model.transfer_time(profile.container_image_bytes, model.image_unpack_bandwidth)
            per_start = unpack + model.container_sandbox_setup
        else:
            per_start = model.wasm_vm_setup + model.transfer_time(
                profile.wasm_binary_bytes, model.wasm_instantiate_bandwidth
            )
        return per_start * profile.cold_start_fraction

    def _http_hop(self, profile: WorkflowProfile, in_wasm: bool) -> float:
        model = DEFAULT_COST_MODEL
        size = profile.payload_bytes
        serialization = model.serialize_time(size, in_wasm) + model.deserialize_time(size, in_wasm)
        overhead = (
            model.http_request_overhead_wasm if in_wasm else model.http_request_overhead_native
        )
        wire_bytes = model.serialized_size(size)
        if profile.colocatable:
            wire = wire_bytes / model.loopback_http_bandwidth
        else:
            wire = model.network_transfer_time(wire_bytes, wasi_mediated=in_wasm)
        copies = 2 * model.user_kernel_copy_time(size)
        boundary = 2 * model.wasm_io_time(size) if in_wasm else 0.0
        return serialization + overhead + wire + copies + boundary

    def _roadrunner_hop(self, profile: WorkflowProfile, mode: DataPassingMode) -> float:
        model = DEFAULT_COST_MODEL
        size = profile.payload_bytes
        wasm_io = 2 * model.wasm_io_time(size)
        preparation = model.region_metadata_overhead + model.transfer_time(
            size, model.pointer_registration_bandwidth
        )
        if mode is DataPassingMode.ROADRUNNER_USER:
            return wasm_io + preparation
        if mode is DataPassingMode.ROADRUNNER_KERNEL:
            ipc = size / model.unix_socket_bandwidth + model.async_task_overhead
            return wasm_io + preparation + ipc
        wire = model.network_transfer_time(size) + model.splice_time(size) * 2
        return wasm_io + preparation + wire + model.data_hose_setup_overhead * 2

    # -- selection -----------------------------------------------------------------

    def evaluate(self, profile: WorkflowProfile) -> Dict[str, float]:
        """Per-invocation latency estimate for every candidate configuration."""
        hops = profile.hops
        candidates: Dict[str, float] = {
            "runc+http": hops * self._http_hop(profile, in_wasm=False)
            + self._cold_start(profile, RuntimeKind.RUNC),
            "wasm+http": hops * self._http_hop(profile, in_wasm=True)
            + self._cold_start(profile, RuntimeKind.WASMEDGE),
        }
        if profile.colocatable:
            candidates["wasm+roadrunner-user"] = hops * self._roadrunner_hop(
                profile, DataPassingMode.ROADRUNNER_USER
            ) + self._cold_start(profile, RuntimeKind.ROADRUNNER)
            candidates["wasm+roadrunner-kernel"] = hops * self._roadrunner_hop(
                profile, DataPassingMode.ROADRUNNER_KERNEL
            ) + self._cold_start(profile, RuntimeKind.ROADRUNNER)
        else:
            candidates["wasm+roadrunner-network"] = hops * self._roadrunner_hop(
                profile, DataPassingMode.ROADRUNNER_NETWORK
            ) + self._cold_start(profile, RuntimeKind.ROADRUNNER)
        return candidates

    def recommend(self, profile: WorkflowProfile) -> RuntimeRecommendation:
        """Pick the cheapest candidate for the profile."""
        candidates = self.evaluate(profile)
        best_name = min(candidates, key=candidates.get)
        runtime = RuntimeKind.RUNC if best_name.startswith("runc") else RuntimeKind.ROADRUNNER
        if best_name == "wasm+http":
            runtime = RuntimeKind.WASMEDGE
        mode = {
            "runc+http": DataPassingMode.HTTP,
            "wasm+http": DataPassingMode.HTTP,
            "wasm+roadrunner-user": DataPassingMode.ROADRUNNER_USER,
            "wasm+roadrunner-kernel": DataPassingMode.ROADRUNNER_KERNEL,
            "wasm+roadrunner-network": DataPassingMode.ROADRUNNER_NETWORK,
        }[best_name]
        rationale = self._rationale(profile, best_name, candidates)
        return RuntimeRecommendation(
            runtime=runtime,
            data_passing=mode,
            estimated_latency_s=candidates[best_name],
            per_candidate_latency_s=candidates,
            rationale=rationale,
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

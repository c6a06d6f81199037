"""Tests for the dynamic runtime selector (future-work extension)."""

import pytest

from repro.container.image import ContainerImage
from repro.container.runc import RunCRuntime
from repro.experiments.harness import measure_pair
from repro.kernel.kernel import Kernel
from repro.platform.runtime_selector import (
    CANDIDATES,
    DataPassingMode,
    RuntimeSelector,
    SelectorError,
    WorkflowProfile,
)
from repro.sim.ledger import CostLedger
from repro.wasm.module import WasmModule
from repro.wasm.runtime import RuntimeKind, WasmRuntime

MB = 1024 * 1024

USER, KERNEL, NETWORK = "wasm+roadrunner-user", "wasm+roadrunner-kernel", "wasm+roadrunner-network"
RUNC, WASM = "runc+http", "wasm+http"


def test_profile_validation():
    with pytest.raises(SelectorError):
        WorkflowProfile(payload_bytes=0)
    with pytest.raises(SelectorError):
        WorkflowProfile(payload_bytes=1, hops=0)
    with pytest.raises(SelectorError):
        WorkflowProfile(payload_bytes=1, cold_start_fraction=1.5)


def test_evaluate_lists_colocatable_candidates():
    selector = RuntimeSelector()
    candidates = selector.evaluate(WorkflowProfile(payload_bytes=10 * MB))
    assert {"runc+http", "wasm+http", "wasm+roadrunner-user", "wasm+roadrunner-kernel"} <= set(
        candidates
    )
    assert all(value > 0 for value in candidates.values())


def test_large_colocatable_payloads_prefer_user_space_roadrunner():
    recommendation = RuntimeSelector().recommend(
        WorkflowProfile(payload_bytes=100 * MB, colocatable=True)
    )
    assert recommendation.runtime is RuntimeKind.ROADRUNNER
    assert recommendation.data_passing is DataPassingMode.ROADRUNNER_USER


def test_remote_workflows_get_the_network_mode():
    recommendation = RuntimeSelector().recommend(
        WorkflowProfile(payload_bytes=50 * MB, colocatable=False)
    )
    assert recommendation.data_passing is DataPassingMode.ROADRUNNER_NETWORK
    assert "wasm+roadrunner-network" in recommendation.per_candidate_latency_s
    assert "wasm+roadrunner-user" not in recommendation.per_candidate_latency_s


def test_frequent_cold_starts_penalise_containers():
    selector = RuntimeSelector()
    cold_heavy = selector.evaluate(
        WorkflowProfile(payload_bytes=1 * MB, cold_start_fraction=0.9)
    )
    warm = selector.evaluate(WorkflowProfile(payload_bytes=1 * MB, cold_start_fraction=0.0))
    # Cold starts add far more to the container candidate than to Wasm ones.
    container_penalty = cold_heavy["runc+http"] - warm["runc+http"]
    wasm_penalty = cold_heavy["wasm+roadrunner-user"] - warm["wasm+roadrunner-user"]
    assert container_penalty > 5 * wasm_penalty
    recommendation = selector.recommend(
        WorkflowProfile(payload_bytes=1 * MB, cold_start_fraction=0.9)
    )
    assert recommendation.runtime is not RuntimeKind.RUNC


def test_wasm_http_is_never_recommended_when_roadrunner_is_available():
    # With Roadrunner available, plain Wasm+HTTP is dominated at every size.
    for size in (1, 10, 100):
        recommendation = RuntimeSelector().recommend(WorkflowProfile(payload_bytes=size * MB))
        assert recommendation.per_candidate_latency_s["wasm+http"] > recommendation.estimated_latency_s
        assert recommendation.runtime is not RuntimeKind.WASMEDGE


def test_rationale_mentions_the_winner():
    recommendation = RuntimeSelector().recommend(WorkflowProfile(payload_bytes=20 * MB))
    assert "cheaper than" in recommendation.rationale
    assert recommendation.estimated_latency_s == min(
        recommendation.per_candidate_latency_s.values()
    )


def test_estimates_scale_with_hops():
    selector = RuntimeSelector()
    one_hop = selector.evaluate(WorkflowProfile(payload_bytes=10 * MB, hops=1))
    three_hops = selector.evaluate(WorkflowProfile(payload_bytes=10 * MB, hops=3))
    for name in one_hop:
        assert three_hops[name] > one_hop[name]


@pytest.mark.parametrize("colocatable", [True, False])
def test_each_estimate_is_the_simulated_hop_plus_the_weighted_cold_start(colocatable):
    profile = WorkflowProfile(
        payload_bytes=3 * MB + 12_345, hops=2, cold_start_fraction=0.3, colocatable=colocatable
    )
    ledger = CostLedger()
    container_start = RunCRuntime(Kernel(ledger), ledger).cold_start_time(
        ContainerImage(name="fn:latest")
    )
    wasm_start = WasmRuntime(ledger).cold_start_time(WasmModule(name="fn.wasm"))
    candidates = RuntimeSelector().evaluate(profile)
    expected_labels = [RUNC, WASM, USER, KERNEL] if colocatable else [RUNC, WASM, NETWORK]
    assert list(candidates) == expected_labels
    for label, estimate in candidates.items():
        mode, runtime, _ = CANDIDATES[label]
        hop = measure_pair(mode, profile.payload_bytes / MB, internode=not colocatable)
        cold_start = container_start if runtime is RuntimeKind.RUNC else wasm_start
        assert estimate == 2 * hop.total_latency_s + 0.3 * cold_start


# Cheapest-first ranking of every candidate, as the hand-written cost model
# the selector replaced ranked them: the simulator moved no recommendation.
@pytest.mark.parametrize(
    "payload_mb, colocatable, cold_start_fraction, ranking",
    [
        (0.01, True, 0.0, [USER, KERNEL, RUNC, WASM]),
        (0.01, True, 0.9, [USER, KERNEL, WASM, RUNC]),
        (0.01, False, 0.0, [NETWORK, RUNC, WASM]),
        (0.01, False, 0.9, [NETWORK, WASM, RUNC]),
        (1, True, 0.0, [USER, KERNEL, RUNC, WASM]),
        (1, True, 0.9, [USER, KERNEL, WASM, RUNC]),
        (1, False, 0.0, [NETWORK, RUNC, WASM]),
        (1, False, 0.9, [NETWORK, WASM, RUNC]),
        (120, True, 0.0, [USER, KERNEL, RUNC, WASM]),
        (120, True, 0.9, [USER, KERNEL, RUNC, WASM]),
        (120, False, 0.0, [NETWORK, RUNC, WASM]),
        (120, False, 0.9, [NETWORK, RUNC, WASM]),
    ],
)
def test_pinned_profiles_keep_their_ranking(payload_mb, colocatable, cold_start_fraction, ranking):
    profile = WorkflowProfile(
        payload_bytes=int(payload_mb * MB),
        colocatable=colocatable,
        cold_start_fraction=cold_start_fraction,
    )
    recommendation = RuntimeSelector().recommend(profile)
    candidates = recommendation.per_candidate_latency_s
    assert sorted(candidates, key=candidates.get) == ranking
    _, runtime, data_passing = CANDIDATES[ranking[0]]
    assert (recommendation.runtime, recommendation.data_passing) == (runtime, data_passing)

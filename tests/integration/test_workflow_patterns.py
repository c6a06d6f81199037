"""Integration tests for the remaining invocation patterns and placements."""

import pytest

from repro.core.kernel_space import KernelSpaceChannel
from repro.core.network import NetworkChannel
from repro.core.router import RoadrunnerChannel
from repro.payload import Payload
from repro.platform.cluster import Cluster
from repro.platform.function import FunctionSpec
from repro.platform.invoker import Invoker
from repro.platform.orchestrator import Orchestrator
from repro.platform.workflow import FanOutWorkflow, SequenceWorkflow
from repro.wasm.runtime import RuntimeKind


def _deploy(cluster, names, placement=None, share_vm_key=None):
    orchestrator = Orchestrator(cluster)
    specs = [FunctionSpec(name, runtime=RuntimeKind.ROADRUNNER, workflow="wf") for name in names]
    orchestrator.deploy_all(specs, placement=placement, share_vm_key=share_vm_key, materialize=True)
    return orchestrator


def test_remote_fanout_through_the_network_channel():
    cluster = Cluster.edge_cloud_pair()
    targets = ["sink-%d" % i for i in range(3)]
    placement = {"source": "edge"}
    placement.update({name: "cloud" for name in targets})
    orchestrator = _deploy(cluster, ["source"] + targets, placement=placement)
    invoker = Invoker(orchestrator, NetworkChannel(cluster))
    payload = Payload.random(64 * 1024, seed=32)
    result = invoker.invoke(FanOutWorkflow("source", targets), payload)
    assert result.branches == 3
    assert result.aggregate.breakdown.get("network", 0) > 0


def test_mixed_placement_chain_uses_different_modes_per_hop():
    """A three-stage chain spanning both nodes exercises two modes at once."""
    cluster = Cluster.edge_cloud_pair()
    placement = {"camera": "edge", "filter": "edge", "classifier": "cloud"}
    orchestrator = _deploy(
        cluster, ["camera", "filter", "classifier"], placement=placement, share_vm_key="wf"
    )
    channel = RoadrunnerChannel(cluster)
    invoker = Invoker(orchestrator, channel)
    payload = Payload.random(128 * 1024, seed=33)
    result = invoker.invoke(SequenceWorkflow(["camera", "filter", "classifier"]), payload)
    modes = {outcome.metrics.mode for outcome in result.outcomes.values()}
    assert modes == {"roadrunner-user", "roadrunner-network"}
    payload.require_match(result.outcomes["filter->classifier"].delivered)


def test_repeated_invocations_accumulate_monotonic_clock():
    cluster = Cluster.single_node()
    orchestrator = _deploy(cluster, ["a", "b"], share_vm_key="wf")
    invoker = Invoker(orchestrator, RoadrunnerChannel(cluster))
    workflow = SequenceWorkflow(["a", "b"])
    timestamps = []
    for i in range(3):
        invoker.invoke(workflow, Payload.random(16 * 1024, seed=i))
        timestamps.append(cluster.ledger.clock.now)
    assert timestamps == sorted(timestamps)
    assert len(set(timestamps)) == 3

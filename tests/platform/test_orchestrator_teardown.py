"""Undeploy must release modelled resources, not just forget the handle."""

import pytest

from repro.platform.cluster import Cluster
from repro.platform.function import FunctionSpec
from repro.platform.gateway import IngressGateway
from repro.platform.node import NodeError
from repro.platform.orchestrator import Orchestrator, PlacementError
from repro.wasm.runtime import RuntimeKind


def _cluster():
    cluster = Cluster.single_node()
    return cluster, Orchestrator(cluster), cluster.node("node-a")


def _spec(name, kind=RuntimeKind.ROADRUNNER):
    return FunctionSpec(
        name, runtime=kind, requires_wasi=kind is not RuntimeKind.RUNC, workflow="wf"
    )


def test_undeploy_container_stops_sandbox_and_reaps_process():
    cluster, orchestrator, node = _cluster()
    deployed = orchestrator.deploy(_spec("fn", RuntimeKind.RUNC), "node-a")
    sandbox = deployed.sandbox
    pid = deployed.process.pid
    orchestrator.undeploy("fn")
    assert not sandbox.running
    assert not deployed.process.alive
    assert pid not in node.kernel.processes
    assert "fn" not in orchestrator.deployments
    with pytest.raises(PlacementError):
        orchestrator.undeploy("fn")


def test_undeploy_wasm_retires_vm_and_shim_process():
    cluster, orchestrator, node = _cluster()
    deployed = orchestrator.deploy(_spec("fn"), "node-a")
    vm, pid = deployed.vm, deployed.process.pid
    orchestrator.undeploy("fn")
    assert vm.instances == []
    assert not deployed.process.alive
    assert pid not in node.kernel.processes
    # The retired VM cannot be colocated into any more.
    with pytest.raises(NodeError):
        node.vm_process(vm)


def test_shared_vm_survives_until_last_instance_leaves():
    cluster, orchestrator, node = _cluster()
    first = orchestrator.deploy(_spec("fn-a"), "node-a", share_vm_key="wf")
    second = orchestrator.deploy(_spec("fn-b"), "node-a", share_vm_key="wf")
    assert first.vm is second.vm
    shim = first.process
    orchestrator.undeploy("fn-a")
    # One instance remains: the VM and its shim must survive.
    assert shim.alive
    assert [instance.module.name for instance in first.vm.instances] == ["fn-b"]
    orchestrator.undeploy("fn-b")
    assert not shim.alive
    assert first.vm.instances == []
    # The sharing entry is gone: redeploying with the same key gets a new VM.
    third = orchestrator.deploy(_spec("fn-c"), "node-a", share_vm_key="wf")
    assert third.vm is not first.vm
    assert third.process.alive


@pytest.mark.parametrize("kind", [RuntimeKind.ROADRUNNER, RuntimeKind.RUNC, RuntimeKind.WASMEDGE])
def test_register_scale_to_zero_churn_leaves_no_processes_behind(kind):
    # The regression the traffic engine's long churn runs depend on: grow a
    # pool, scale it back to zero, repeat — the node's process table must
    # return to its baseline every cycle instead of accumulating shims.
    cluster, orchestrator, node = _cluster()
    gateway = IngressGateway(orchestrator)
    spec = _spec("worker", kind)
    baseline = len(node.kernel.processes)
    for _ in range(5):
        replicas = gateway.register(spec, replicas=4, charge_cold_start=False)
        assert len(node.kernel.processes) == baseline + 4
        for replica in replicas:
            gateway.remove_replica("worker", replica)
        assert len(node.kernel.processes) == baseline
        assert node.kernel.live_process_count == 0
    assert orchestrator.deployments == {}

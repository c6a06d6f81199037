"""Unit tests for deployed-function validation and accessors."""

import pytest

from repro.platform.deployment import DeployedFunction, DeploymentError
from repro.platform.cluster import Cluster
from repro.platform.function import FunctionSpec
from repro.serialization.serializer import ExecutionEnvironment, Serializer
from repro.wasm.runtime import RuntimeKind


def test_wasm_deployment_requires_vm_and_instance():
    cluster = Cluster.single_node()
    ledger = cluster.ledger
    node = cluster.node("node-a")
    process = node.kernel.create_process("shim")
    serializer = Serializer(ledger=ledger, environment=ExecutionEnvironment.WASM)
    with pytest.raises(DeploymentError):
        DeployedFunction(
            spec=FunctionSpec("fn", runtime=RuntimeKind.ROADRUNNER),
            node_name="node-a",
            process=process,
            serializer=serializer,
        )


def test_container_deployment_requires_sandbox():
    cluster = Cluster.single_node()
    ledger = cluster.ledger
    node = cluster.node("node-a")
    process = node.kernel.create_process("sandbox")
    serializer = Serializer(ledger=ledger, environment=ExecutionEnvironment.NATIVE)
    with pytest.raises(DeploymentError):
        DeployedFunction(
            spec=FunctionSpec("fn", runtime=RuntimeKind.RUNC),
            node_name="node-a",
            process=process,
            serializer=serializer,
        )


def test_accessors_and_environment(shared_vm_pair, container_pair):
    _, _, (wasm_fn, _) = shared_vm_pair
    _, _, (container_fn, _) = container_pair
    assert wasm_fn.execution_environment is ExecutionEnvironment.WASM
    assert container_fn.execution_environment is ExecutionEnvironment.NATIVE
    assert wasm_fn.require_wasm() is wasm_fn.instance
    assert container_fn.require_container() is container_fn.sandbox
    with pytest.raises(DeploymentError):
        container_fn.require_wasm()
    with pytest.raises(DeploymentError):
        wasm_fn.require_container()
    assert wasm_fn.cgroup is wasm_fn.process.cgroup
    assert wasm_fn.name == wasm_fn.spec.name

"""Unit tests for cluster nodes, the cluster and the orchestrator."""

import pytest

from repro.platform.cluster import Cluster, ClusterError
from repro.platform.deployment import DeployedFunction
from repro.platform.function import FunctionSpec
from repro.platform.node import NodeError
from repro.platform.orchestrator import Orchestrator, PlacementError
from repro.wasm.runtime import RuntimeKind

from tests.conftest import make_container_specs, make_wasm_specs


def test_single_node_cluster_shape():
    cluster = Cluster.single_node()
    assert list(cluster.nodes) == ["node-a"]
    assert cluster.colocated("node-a", "node-a")
    assert not cluster.link_between("node-a", "node-a").is_remote


def test_edge_cloud_pair_shape():
    cluster = Cluster.edge_cloud_pair()
    assert set(cluster.nodes) == {"edge", "cloud"}
    assert cluster.link_between("edge", "cloud").is_remote
    with pytest.raises(ClusterError):
        cluster.node("missing")


def test_duplicate_node_rejected():
    cluster = Cluster.single_node()
    with pytest.raises(ClusterError):
        cluster.add_node("node-a")


def test_deploy_container_function():
    cluster = Cluster.single_node()
    node = cluster.node("node-a")
    spec = FunctionSpec("svc", runtime=RuntimeKind.RUNC, requires_wasi=False)
    deployed = node.deploy_container(spec)
    assert isinstance(deployed, DeployedFunction)
    assert not deployed.is_wasm
    assert deployed.sandbox is not None
    assert deployed.node_name == "node-a"


def test_deploy_container_rejects_wasm_spec():
    node = Cluster.single_node().node("node-a")
    with pytest.raises(NodeError):
        node.deploy_container(FunctionSpec("fn", runtime=RuntimeKind.ROADRUNNER))


def test_deploy_wasm_creates_vm_and_shim_process():
    node = Cluster.single_node().node("node-a")
    deployed = node.deploy_wasm(FunctionSpec("fn", runtime=RuntimeKind.ROADRUNNER))
    assert deployed.is_wasm
    assert deployed.vm is not None and deployed.instance is not None
    assert deployed.wasi is not None
    assert node.vm_process(deployed.vm) is deployed.process


def test_deploy_wasm_rejects_container_spec():
    node = Cluster.single_node().node("node-a")
    with pytest.raises(NodeError):
        node.deploy_wasm(FunctionSpec("fn", runtime=RuntimeKind.RUNC))


def test_shared_vm_requires_same_trust_domain():
    node = Cluster.single_node().node("node-a")
    first = node.deploy_wasm(FunctionSpec("a", runtime=RuntimeKind.ROADRUNNER, workflow="wf", tenant="t1"))
    with pytest.raises(NodeError):
        node.deploy_wasm(
            FunctionSpec("b", runtime=RuntimeKind.ROADRUNNER, workflow="wf", tenant="t2"),
            shared_vm=first.vm,
        )


def test_orchestrator_round_robin_and_explicit_placement():
    cluster = Cluster.edge_cloud_pair()
    orchestrator = Orchestrator(cluster)
    specs = make_wasm_specs()
    mapping = orchestrator.place(specs)
    assert set(mapping.values()) <= {"edge", "cloud"}
    explicit = orchestrator.place(specs, placement={"fn-a": "cloud", "fn-b": "cloud"})
    assert explicit == {"fn-a": "cloud", "fn-b": "cloud"}
    with pytest.raises(PlacementError):
        orchestrator.place(specs, placement={"fn-a": "mars"})


def test_orchestrator_deploys_shared_vm_pairs():
    cluster = Cluster.single_node()
    orchestrator = Orchestrator(cluster)
    a, b = orchestrator.deploy_all(make_wasm_specs(), share_vm_key="wf", materialize=True)
    assert a.shares_vm_with(b)
    assert a.same_trust_domain(b)
    assert orchestrator.deployment("fn-a") is a


def test_orchestrator_deploys_separate_vms_by_default():
    cluster = Cluster.single_node()
    orchestrator = Orchestrator(cluster)
    a, b = orchestrator.deploy_all(make_wasm_specs(), materialize=True)
    assert not a.shares_vm_with(b)
    assert a.colocated_with(b)


def test_orchestrator_rejects_duplicate_and_unknown_lookups():
    cluster = Cluster.single_node()
    orchestrator = Orchestrator(cluster)
    orchestrator.deploy_all(make_container_specs())
    with pytest.raises(PlacementError):
        orchestrator.deploy(FunctionSpec("fn-a", runtime=RuntimeKind.RUNC), "node-a")
    with pytest.raises(PlacementError):
        orchestrator.deployment("ghost")
    orchestrator.undeploy("fn-a")
    with pytest.raises(PlacementError):
        orchestrator.undeploy("fn-a")


def test_deployment_trust_and_colocation_predicates():
    cluster = Cluster.edge_cloud_pair()
    orchestrator = Orchestrator(cluster)
    a, b = orchestrator.deploy_all(
        make_wasm_specs(), placement={"fn-a": "edge", "fn-b": "cloud"}, materialize=True
    )
    assert not a.colocated_with(b)
    assert a.same_trust_domain(b)
    assert not a.shares_vm_with(b)

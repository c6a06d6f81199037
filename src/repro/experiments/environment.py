"""Experiment environments: clusters, deployments and channels per runtime.

Every evaluated configuration is described by a mode label:

====================  ==========================================================
``roadrunner-user``    two Wasm functions sharing one VM, user-space channel
``roadrunner-kernel``  two Wasm functions in separate VMs on one node, IPC
``roadrunner-network`` two Wasm functions on different nodes, virtual data hose
``runc-http``          two RunC containers exchanging serialized HTTP payloads
``wasmedge-http``      two WasmEdge functions exchanging serialized HTTP payloads
====================  ==========================================================

``build_pair_setup`` / ``build_fanout_setup`` assemble a fresh, isolated
environment (cluster, ledger, deployments, channel, workflow, invoker) for one
measurement so repetitions never share state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.baselines.runc_http import RunCHttpChannel
from repro.baselines.wasmedge_http import WasmEdgeHttpChannel
from repro.core.config import RoadrunnerConfig
from repro.core.kernel_space import KernelSpaceChannel
from repro.core.network import NetworkChannel
from repro.core.user_space import UserSpaceChannel
from repro.platform.channel import DataPassingChannel
from repro.platform.cluster import Cluster
from repro.platform.deployment import DeployedFunction
from repro.platform.function import FunctionSpec
from repro.platform.invoker import Invoker
from repro.platform.orchestrator import Orchestrator
from repro.platform.workflow import FanOutWorkflow, SequenceWorkflow, Workflow
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL
from repro.wasm.runtime import RuntimeKind


class EnvironmentError_(ValueError):
    """Raised for unknown modes or invalid mode/topology combinations."""


#: Modes evaluated intra-node (Figs. 7 and 9).
INTRA_NODE_MODES: Tuple[str, ...] = (
    "roadrunner-user",
    "roadrunner-kernel",
    "runc-http",
    "wasmedge-http",
)

#: Modes evaluated inter-node (Figs. 6, 8 and 10).
INTER_NODE_MODES: Tuple[str, ...] = (
    "roadrunner-network",
    "runc-http",
    "wasmedge-http",
)

_ROADRUNNER_MODES = {"roadrunner-user", "roadrunner-kernel", "roadrunner-network"}
_ALL_MODES = set(INTRA_NODE_MODES) | set(INTER_NODE_MODES)


@dataclass
class TransferSetup:
    """One fully assembled measurement environment."""

    mode: str
    cluster: Cluster
    orchestrator: Orchestrator
    channel: DataPassingChannel
    workflow: Workflow
    source: DeployedFunction
    targets: List[DeployedFunction]
    invoker: Invoker

    @property
    def target(self) -> DeployedFunction:
        return self.targets[0]

    @property
    def cores(self) -> int:
        return self.cluster.node(self.source.node_name).cores


def _validate_mode(mode: str, internode: bool) -> None:
    if mode not in _ALL_MODES:
        raise EnvironmentError_("unknown mode %r (known: %s)" % (mode, ", ".join(sorted(_ALL_MODES))))
    if internode and mode in ("roadrunner-user", "roadrunner-kernel"):
        raise EnvironmentError_("mode %r is intra-node only" % mode)
    if not internode and mode == "roadrunner-network":
        raise EnvironmentError_("mode %r is inter-node only" % mode)


def _runtime_kind(mode: str) -> RuntimeKind:
    if mode == "runc-http":
        return RuntimeKind.RUNC
    if mode == "wasmedge-http":
        return RuntimeKind.WASMEDGE
    return RuntimeKind.ROADRUNNER


def _make_cluster(internode: bool, cost_model: CostModel) -> Cluster:
    if internode:
        return Cluster.edge_cloud_pair(cost_model=cost_model)
    return Cluster.single_node(cost_model=cost_model)


def _make_channel(
    mode: str, cluster: Cluster, config: Optional[RoadrunnerConfig]
) -> DataPassingChannel:
    if mode == "roadrunner-user":
        return UserSpaceChannel(cluster, config)
    if mode == "roadrunner-kernel":
        return KernelSpaceChannel(cluster, config)
    if mode == "roadrunner-network":
        return NetworkChannel(cluster, config)
    if mode == "runc-http":
        return RunCHttpChannel(cluster)
    return WasmEdgeHttpChannel(cluster)


def _specs(mode: str, names: Sequence[str]) -> List[FunctionSpec]:
    kind = _runtime_kind(mode)
    requires_wasi = kind is not RuntimeKind.RUNC
    return [
        FunctionSpec(
            name=name,
            runtime=kind,
            requires_wasi=requires_wasi,
            workflow="pipeline",
            tenant="tenant-1",
        )
        for name in names
    ]


def build_pair_setup(
    mode: str,
    internode: bool = False,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    config: Optional[RoadrunnerConfig] = None,
    materialize: bool = False,
) -> TransferSetup:
    """A chained two-function workflow (function a -> function b)."""
    _validate_mode(mode, internode)
    cluster = _make_cluster(internode, cost_model)
    orchestrator = Orchestrator(cluster)
    specs = _specs(mode, ["fn-a", "fn-b"])
    nodes = list(cluster.nodes)
    placement = {"fn-a": nodes[0], "fn-b": nodes[-1] if internode else nodes[0]}
    share_vm_key = "shared-vm" if mode == "roadrunner-user" else None
    deployments = orchestrator.deploy_all(
        specs, placement=placement, share_vm_key=share_vm_key, materialize=materialize
    )
    channel = _make_channel(mode, cluster, config)
    workflow = SequenceWorkflow(["fn-a", "fn-b"], name="chain-a-b")
    invoker = Invoker(orchestrator, channel)
    return TransferSetup(
        mode=mode,
        cluster=cluster,
        orchestrator=orchestrator,
        channel=channel,
        workflow=workflow,
        source=deployments[0],
        targets=[deployments[1]],
        invoker=invoker,
    )


def build_fanout_setup(mode: str, degree: int, internode: bool = False) -> TransferSetup:
    """A fan-out workflow: function a feeding ``degree`` replicas of b."""
    if degree < 1:
        raise EnvironmentError_("fan-out degree must be >= 1")
    _validate_mode(mode, internode)
    cluster = _make_cluster(internode, DEFAULT_COST_MODEL)
    orchestrator = Orchestrator(cluster)
    target_names = ["fn-b-%d" % i for i in range(degree)]
    specs = _specs(mode, ["fn-a"] + target_names)
    nodes = list(cluster.nodes)
    target_node = nodes[-1] if internode else nodes[0]
    placement = {"fn-a": nodes[0]}
    placement.update({name: target_node for name in target_names})
    share_vm_key = "shared-vm" if mode == "roadrunner-user" else None
    deployments = orchestrator.deploy_all(
        specs, placement=placement, share_vm_key=share_vm_key, materialize=False
    )
    channel = _make_channel(mode, cluster, None)
    workflow = FanOutWorkflow(source="fn-a", targets=target_names, name="fan-out-%d" % degree)
    invoker = Invoker(orchestrator, channel)
    return TransferSetup(
        mode=mode,
        cluster=cluster,
        orchestrator=orchestrator,
        channel=channel,
        workflow=workflow,
        source=deployments[0],
        targets=deployments[1:],
        invoker=invoker,
    )

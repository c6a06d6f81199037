"""repro: a Python reproduction of Roadrunner (MIDDLEWARE 2025).

Roadrunner is a sidecar shim that gives WebAssembly-based serverless
functions near-zero-copy, serialization-free data transfer in three modes:
user space (same Wasm VM), kernel space (same host, Unix-socket IPC) and
network (virtual data hose built on splice/vmsplice).  This package
re-implements the system and every substrate it depends on — Wasm VM and
linear memory, kernel pipes/sockets/cgroups, network links, serialization,
containers and a serverless platform — plus the paper's full evaluation
harness.

Quickstart::

    from repro import (
        Cluster, Orchestrator, FunctionSpec, RoadrunnerChannel,
        SequenceWorkflow, Invoker, Payload, RuntimeKind,
    )

    cluster = Cluster.single_node()
    orchestrator = Orchestrator(cluster)
    specs = [
        FunctionSpec("ingest", runtime=RuntimeKind.ROADRUNNER, workflow="wf"),
        FunctionSpec("infer", runtime=RuntimeKind.ROADRUNNER, workflow="wf"),
    ]
    orchestrator.deploy_all(specs, share_vm_key="wf", materialize=True)
    channel = RoadrunnerChannel(cluster)
    result = Invoker(orchestrator, channel).invoke(
        SequenceWorkflow(["ingest", "infer"]), Payload.from_text("hello")
    )
    print(result.total_latency_s, result.aggregate.serialization_s)
"""

from repro.payload import Payload, PayloadError
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL
from repro.sim.ledger import ClusterLedger, CostCategory, CostLedger, CpuDomain, NodeLedger
from repro.wasm.runtime import RuntimeKind
from repro.platform.cluster import Cluster
from repro.platform.function import FunctionSpec
from repro.platform.orchestrator import Orchestrator
from repro.platform.invoker import Invoker, WorkflowResult
from repro.platform.workflow import FanOutWorkflow, SequenceWorkflow, Workflow
from repro.core.config import RoadrunnerConfig
from repro.core.router import RoadrunnerChannel, TransferMode, TransferModeRouter
from repro.core.user_space import UserSpaceChannel
from repro.core.kernel_space import KernelSpaceChannel
from repro.core.network import NetworkChannel
from repro.baselines.runc_http import RunCHttpChannel
from repro.baselines.wasmedge_http import WasmEdgeHttpChannel

__version__ = "1.0.0"

__all__ = [
    "Payload",
    "PayloadError",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "CostCategory",
    "ClusterLedger",
    "CostLedger",
    "NodeLedger",
    "CpuDomain",
    "RuntimeKind",
    "Cluster",
    "FunctionSpec",
    "Orchestrator",
    "Invoker",
    "WorkflowResult",
    "Workflow",
    "SequenceWorkflow",
    "FanOutWorkflow",
    "RoadrunnerConfig",
    "RoadrunnerChannel",
    "TransferMode",
    "TransferModeRouter",
    "UserSpaceChannel",
    "KernelSpaceChannel",
    "NetworkChannel",
    "RunCHttpChannel",
    "WasmEdgeHttpChannel",
    "__version__",
]

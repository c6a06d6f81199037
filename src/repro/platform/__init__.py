"""Serverless platform substrate: functions, nodes, cluster, workflows, invoker.

This package stands in for the orchestration layers the paper integrates with
(Kubernetes/Knative + containerd): it defines function specs, deploys them
onto cluster nodes as containers or Wasm VMs, models workflows (sequential,
fan-out, fan-in) and drives data transfers through a pluggable
:class:`~repro.platform.channel.DataPassingChannel` — which is where
Roadrunner and the HTTP baselines plug in.
"""

from repro.platform.function import FunctionSpec
from repro.platform.deployment import DeployedFunction
from repro.platform.channel import DataPassingChannel, TransferOutcome, ChannelError
from repro.platform.node import ClusterNode
from repro.platform.cluster import Cluster
from repro.platform.workflow import (
    FanOutWorkflow,
    InvocationPattern,
    SequenceWorkflow,
    Workflow,
)
from repro.platform.orchestrator import Orchestrator, PlacementError
from repro.platform.invoker import Invoker, WorkflowResult
from repro.platform.gateway import IngressGateway
from repro.platform.runtime_selector import RuntimeSelector, WorkflowProfile

__all__ = [
    "IngressGateway",
    "RuntimeSelector",
    "WorkflowProfile",
    "FunctionSpec",
    "DeployedFunction",
    "DataPassingChannel",
    "TransferOutcome",
    "ChannelError",
    "ClusterNode",
    "Cluster",
    "Workflow",
    "SequenceWorkflow",
    "FanOutWorkflow",
    "InvocationPattern",
    "Orchestrator",
    "PlacementError",
    "Invoker",
    "WorkflowResult",
]

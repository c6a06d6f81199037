"""The orchestrator: placement and deployment of function specs onto nodes.

Roadrunner deliberately does *not* bring its own scheduler — "Roadrunner
optimizes communication regardless of the scheduler's decisions" (Sec. 2.2).
The orchestrator therefore takes an explicit placement (function -> node) or
falls back to round-robin, and exposes the two colocation flavours the
evaluation needs: deploy several Wasm functions into one shared VM
(user-space mode) or give every function its own sandbox.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.platform.cluster import Cluster
from repro.platform.deployment import DeployedFunction
from repro.platform.function import FunctionSpec
from repro.wasm.vm import WasmVM


class PlacementError(RuntimeError):
    """Raised for invalid placements (unknown nodes, incompatible colocations)."""


class Orchestrator:
    """Places and deploys functions on a cluster."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._deployments: Dict[str, DeployedFunction] = {}
        self._shared_vms: Dict[str, WasmVM] = {}

    # -- placement ------------------------------------------------------------------

    def place(
        self,
        specs: Sequence[FunctionSpec],
        placement: Optional[Dict[str, str]] = None,
    ) -> Dict[str, str]:
        """Return a function->node mapping, validating any explicit placement."""
        nodes = self.cluster.node_names
        if not nodes:
            raise PlacementError("the cluster has no nodes")
        result: Dict[str, str] = {}
        for index, spec in enumerate(specs):
            name = spec.name
            if placement and name in placement:
                node = placement[name]
                if node not in nodes:
                    raise PlacementError("placement maps %r to unknown node %r" % (name, node))
            else:
                node = nodes[index % len(nodes)]
            result[name] = node
        return result

    # -- deployment ----------------------------------------------------------------------

    def deploy(
        self,
        spec: FunctionSpec,
        node_name: str,
        share_vm_key: Optional[str] = None,
        materialize: bool = True,
        charge_cold_start: bool = False,
    ) -> DeployedFunction:
        """Deploy one spec onto one node.

        ``share_vm_key`` names a VM-sharing group: all functions deployed with
        the same key on the same node end up in one Wasm VM (the precondition
        for Roadrunner's user-space mode).
        """
        if spec.name in self._deployments:
            raise PlacementError("function %r is already deployed" % spec.name)
        node = self.cluster.node(node_name)
        if not spec.is_wasm:
            deployed = node.deploy_container(spec, charge_cold_start=charge_cold_start)
        else:
            shared_vm = None
            if share_vm_key is not None:
                vm_key = "%s/%s" % (node_name, share_vm_key)
                shared_vm = self._shared_vms.get(vm_key)
            deployed = node.deploy_wasm(
                spec,
                shared_vm=shared_vm,
                materialize=materialize,
                charge_cold_start=charge_cold_start,
            )
            if share_vm_key is not None and shared_vm is None:
                self._shared_vms[vm_key] = deployed.vm
        self._deployments[spec.name] = deployed
        return deployed

    def deploy_all(
        self,
        specs: Sequence[FunctionSpec],
        placement: Optional[Dict[str, str]] = None,
        share_vm_key: Optional[str] = None,
        materialize: bool = True,
    ) -> List[DeployedFunction]:
        """Place and deploy a list of specs; returns deployments in order."""
        mapping = self.place(specs, placement)
        return [
            self.deploy(
                spec,
                mapping[spec.name],
                share_vm_key=share_vm_key,
                materialize=materialize,
            )
            for spec in specs
        ]

    # -- lookups ----------------------------------------------------------------------------

    def deployment(self, name: str) -> DeployedFunction:
        if name not in self._deployments:
            raise PlacementError("function %r is not deployed" % name)
        return self._deployments[name]

    @property
    def deployments(self) -> Dict[str, DeployedFunction]:
        return dict(self._deployments)

    def undeploy(self, name: str) -> None:
        """Remove a deployment and release its resources on the node.

        The node stops the container sandbox or terminates the Wasm module
        instance, exiting and reaping the backing process once nothing uses
        it.  If that retires a shared VM, the sharing entry is dropped so a
        later deploy with the same key creates (and pays for) a fresh VM.
        """
        if name not in self._deployments:
            raise PlacementError("function %r is not deployed" % name)
        deployed = self._deployments.pop(name)
        retired_vm = self.cluster.node(deployed.node_name).undeploy(deployed)
        if retired_vm is not None:
            self._shared_vms = {
                key: vm for key, vm in self._shared_vms.items() if vm.name != retired_vm
            }

"""Cluster nodes: one kernel, one containerd, one Wasm runtime per node.

A node owns the per-host substrates and knows how to deploy a
:class:`~repro.platform.function.FunctionSpec` as either a RunC container or
a Wasm VM (optionally sharing an existing VM, which is how Roadrunner's
user-space mode colocates functions of the same workflow).

Accounting is node-scoped: the ledger handed to a node is its *own* shard
(a :class:`~repro.sim.ledger.NodeLedger` when created through
:meth:`~repro.platform.cluster.Cluster.add_node`), so everything the node's
kernel, container runtime, Wasm runtime and serializers charge lands on
that node — independent nodes never contend on one append path, and the
cluster ledger merges the shards for reporting.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.container.containerd import Containerd
from repro.container.image import ContainerImage
from repro.container.oci import OciBundle
from repro.container.runc import RunCRuntime
from repro.kernel.kernel import Kernel
from repro.platform.deployment import DeployedFunction
from repro.platform.function import FunctionSpec
from repro.serialization.serializer import ExecutionEnvironment, Serializer
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL
from repro.sim.ledger import CostLedger
from repro.wasm.module import WasmModule
from repro.wasm.runtime import WasmRuntime
from repro.wasm.vm import WasmVM
from repro.wasm.wasi import WasiInterface


_NATIVE = ExecutionEnvironment.NATIVE
_WASM = ExecutionEnvironment.WASM


class NodeError(RuntimeError):
    """Raised for invalid node operations."""


class ClusterNode:
    """One host of the emulated testbed."""

    def __init__(
        self,
        name: str,
        ledger: CostLedger,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        self.name = name
        self.ledger = ledger
        self.cost_model = cost_model
        self.cores = cost_model.cores_per_node
        self.kernel = Kernel(ledger=ledger, cost_model=cost_model, node_name=name)
        self.runc = RunCRuntime(kernel=self.kernel, ledger=ledger, cost_model=cost_model)
        self.wasm_runtime = WasmRuntime(ledger=ledger, cost_model=cost_model)
        self.containerd = Containerd(runc=self.runc)
        self._deployed = 0
        # Shared-VM bookkeeping: one shim process per VM created on this node.
        self._vm_processes: dict = {}
        #: One stateless serializer per execution environment, made on first use.
        self._serializers: Dict[ExecutionEnvironment, Serializer] = {}

    def serializer(self, environment: ExecutionEnvironment) -> Serializer:
        """This node's serializer for ``environment`` (shared by its functions)."""
        serializer = self._serializers.get(environment)
        if serializer is None:
            serializer = self._serializers[environment] = Serializer(
                ledger=self.ledger, cost_model=self.cost_model, environment=environment
            )
        return serializer

    # -- deployment -----------------------------------------------------------------

    def deploy_container(
        self, spec: FunctionSpec, charge_cold_start: bool = False
    ) -> DeployedFunction:
        """Deploy ``spec`` as a RunC container (the paper's RunC baseline)."""
        if spec.is_wasm:
            raise NodeError("spec %r targets a Wasm runtime, not RunC" % spec.name)
        self._deployed += 1
        bundle = OciBundle(
            name="%s-%d" % (spec.name, self._deployed),
            image=ContainerImage(name="%s:latest" % spec.name),
            runtime_class="runc",
        )
        handle = self.containerd.start(
            bundle,
            workflow=spec.workflow,
            tenant=spec.tenant,
            charge_cold_start=charge_cold_start,
        )
        sandbox = handle.sandbox
        return DeployedFunction(
            spec=spec,
            node_name=self.name,
            process=sandbox.process,
            serializer=self.serializer(_NATIVE),
            sandbox=sandbox,
        )

    def deploy_wasm(
        self,
        spec: FunctionSpec,
        shared_vm: Optional[WasmVM] = None,
        materialize: bool = True,
        charge_cold_start: bool = False,
    ) -> DeployedFunction:
        """Deploy ``spec`` as a Wasm module.

        With ``shared_vm`` the module joins an existing VM (Roadrunner's
        user-space colocation); otherwise a fresh VM plus a shim process is
        created for it.
        """
        if not spec.is_wasm:
            raise NodeError("spec %r targets RunC, not a Wasm runtime" % spec.name)
        module = WasmModule(
            name=spec.name,
            binary_size=spec.binary_size,
            requires_wasi=spec.requires_wasi,
        )
        if shared_vm is not None:
            if shared_vm.tenant != spec.tenant or shared_vm.workflow != spec.workflow:
                raise NodeError(
                    "function %r (workflow=%s, tenant=%s) cannot join VM %r "
                    "(workflow=%s, tenant=%s): trust domains differ"
                    % (
                        spec.name,
                        spec.workflow,
                        spec.tenant,
                        shared_vm.name,
                        shared_vm.workflow,
                        shared_vm.tenant,
                    )
                )
            vm = shared_vm
            process = self._vm_process(vm)
        else:
            vm = self.wasm_runtime.create_vm(
                name="%s-vm-%s" % (self.name, spec.name),
                tenant=spec.tenant,
                workflow=spec.workflow,
                materialize=materialize,
                charge_cold_start=charge_cold_start,
            )
            process = self.kernel.create_process(
                "shim-%s" % spec.name, baseline_rss_bytes=self.cost_model.wasm_baseline_rss_bytes
            )
            self._vm_processes[vm.name] = process
        instance = self.wasm_runtime.load_module(vm, module, charge_cold_start=charge_cold_start)
        wasi = WasiInterface(vm=vm, process=process) if spec.requires_wasi else None
        return DeployedFunction(
            spec=spec,
            node_name=self.name,
            process=process,
            serializer=self.serializer(_WASM),
            vm=vm,
            instance=instance,
            wasi=wasi,
        )

    # -- teardown -------------------------------------------------------------------

    def undeploy(self, deployed: DeployedFunction) -> Optional[str]:
        """Release everything ``deployed`` holds on this node.

        Containers are stopped through containerd (which exits the sandbox
        process) and their process is reaped from the kernel table.  Wasm
        deployments terminate their module instance; when that leaves the VM
        empty, the shim process driving it is exited and reaped too, and the
        retired VM's name is returned so the orchestrator can drop any
        VM-sharing entry pointing at it.
        """
        if deployed.node_name != self.name:
            raise NodeError(
                "function %r is deployed on %r, not %r"
                % (deployed.name, deployed.node_name, self.name)
            )
        if not deployed.is_wasm:
            sandbox = deployed.require_container()
            self.containerd.stop(sandbox.bundle.name)
            self.kernel.reap(deployed.process.pid)
            return None
        vm = deployed.vm
        vm.terminate(deployed.spec.name)
        if vm.instances:
            return None  # other colocated functions still share this VM
        process = self._vm_processes.pop(vm.name, None)
        if process is not None:
            self.kernel.reap(process.pid)
        return vm.name

    def _vm_process(self, vm: WasmVM):
        if vm.name not in self._vm_processes:
            raise NodeError(
                "VM %r was not created on node %r; cannot colocate into it" % (vm.name, self.name)
            )
        return self._vm_processes[vm.name]

    def vm_process(self, vm: WasmVM):
        """The shim process driving ``vm`` (public accessor for channels)."""
        return self._vm_process(vm)

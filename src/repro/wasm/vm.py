"""The Wasm VM sandbox and the host-side memory API.

A :class:`WasmVM` is one isolation sandbox.  In Roadrunner's user-space mode
several module instances of the same workflow and tenant share one VM; in the
kernel-space and network modes each function has its own VM.  The host (the
shim) never touches linear memory directly — it goes through
:class:`HostMemoryApi`, which performs bounds-checked accesses and charges the
"Wasm VM I/O" cost the paper's Fig. 6 breaks out.
"""

from __future__ import annotations

from typing import Dict, List

from repro.payload import Payload
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL, WASM_MAX_PAGES
from repro.sim.ledger import CostCategory, CostLedger, CpuDomain, MemoryMeter
from repro.wasm.linear_memory import LinearMemory
from repro.wasm.module import WasmInstance, WasmModule


class VmError(RuntimeError):
    """Raised for invalid VM operations (unknown instances, tenant mismatch)."""


class WasmVM:
    """A sandboxed Wasm virtual machine hosting one or more module instances."""

    def __init__(
        self,
        name: str,
        ledger: CostLedger,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        tenant: str = "default",
        workflow: str = "default",
        materialize: bool = True,
    ) -> None:
        self.name = name
        self.ledger = ledger
        self.cost_model = cost_model
        self.tenant = tenant
        self.workflow = workflow
        self.materialize = materialize
        self._instances: Dict[str, WasmInstance] = {}
        baseline = int(cost_model.wasm_baseline_rss_mb * 1024 * 1024)
        self.meter: MemoryMeter = ledger.meter(name, baseline_bytes=baseline)

    # -- lifecycle -----------------------------------------------------------------

    def instantiate(self, module: WasmModule) -> WasmInstance:
        """Instantiate ``module`` inside this VM with a fresh linear memory."""
        if module.name in self._instances:
            raise VmError("module %r is already instantiated in VM %r" % (module.name, self.name))
        memory = LinearMemory(
            initial_pages=2,
            max_pages=WASM_MAX_PAGES,
            materialize=self.materialize,
            meter=self.meter,
            name="%s/%s" % (self.name, module.name),
        )
        instance = WasmInstance(module=module, memory=memory, vm_name=self.name)
        self._instances[module.name] = instance
        return instance

    def instance(self, module_name: str) -> WasmInstance:
        if module_name not in self._instances:
            raise VmError("VM %r has no instance of module %r" % (self.name, module_name))
        return self._instances[module_name]

    @property
    def instances(self) -> List[WasmInstance]:
        return list(self._instances.values())

    def terminate(self, module_name: str) -> None:
        """Drop an instance (its memory becomes unreachable)."""
        if module_name not in self._instances:
            raise VmError("VM %r has no instance of module %r" % (self.name, module_name))
        del self._instances[module_name]

    # -- host access ----------------------------------------------------------------

    def host_api(self) -> "HostMemoryApi":
        """The host-side memory API used by the Roadrunner shim."""
        return HostMemoryApi(self)


class HostMemoryApi:
    """Host-side access to the linear memories of a VM's instances.

    Implements the "Shim" rows of the paper's Table 1
    (``read_memory_host`` / ``write_memory_host``) plus allocation on behalf
    of a target instance.  Every call charges Wasm-I/O time to the VM's
    ledger, because data crossing the VM boundary is exactly the penalty the
    paper accepts in exchange for removing serialization.
    """

    def __init__(self, vm: WasmVM) -> None:
        self.vm = vm

    def _charge_io(self, nbytes: int, label: str) -> None:
        self.vm.ledger.charge(
            CostCategory.WASM_IO,
            self.vm.cost_model.wasm_io_time(nbytes),
            cpu_domain=CpuDomain.USER,
            nbytes=nbytes,
            copied=True,
            label=label,
        )

    def read_memory_host(self, module_name: str, address: int, length: int) -> Payload:
        """Read ``length`` bytes from an instance's memory (shim ingress)."""
        instance = self.vm.instance(module_name)
        payload = instance.memory.read_payload(address, length)
        self._charge_io(length, "read_memory_host:%s" % module_name)
        return payload

    def write_memory_host(self, module_name: str, payload: Payload, address: int) -> None:
        """Write a payload into an instance's memory (shim egress)."""
        instance = self.vm.instance(module_name)
        instance.memory.write_payload(address, payload)
        instance.set_input(address)
        self._charge_io(payload.size, "write_memory_host:%s" % module_name)

    def allocate_memory(self, module_name: str, length: int) -> int:
        """Allocate ``length`` bytes in an instance on behalf of the shim."""
        instance = self.vm.instance(module_name)
        address = instance.memory.allocate(length)
        # Allocation is cheap relative to copies, but it is not free: charge
        # the metadata overhead once.
        self.vm.ledger.charge(
            CostCategory.WASM_IO,
            self.vm.cost_model.region_metadata_overhead,
            cpu_domain=CpuDomain.USER,
            label="allocate_memory:%s" % module_name,
        )
        return address

    def deallocate_memory(self, module_name: str, address: int) -> int:
        """Free an allocation previously made in an instance."""
        instance = self.vm.instance(module_name)
        length = instance.memory.deallocate(address)
        self.vm.ledger.charge(
            CostCategory.WASM_IO,
            self.vm.cost_model.region_metadata_overhead,
            cpu_domain=CpuDomain.USER,
            label="deallocate_memory:%s" % module_name,
        )
        return length

    def locate_memory_region(self, module_name: str, address: int) -> "tuple[int, int]":
        """Return the (pointer, length) of a guest allocation."""
        instance = self.vm.instance(module_name)
        pointer, length = instance.memory.locate(address)
        self.vm.ledger.charge(
            CostCategory.WASM_IO,
            self.vm.cost_model.region_metadata_overhead,
            cpu_domain=CpuDomain.USER,
            label="locate_memory_region:%s" % module_name,
        )
        return pointer, length

"""A WasmEdge-like runtime: creates VMs, loads modules, models cold starts.

The runtime is what the shim drives during the function lifecycle described
in Sec. 3.2.5: create a dedicated Wasm VM, configure resource limits, load the
function binary into the VM's isolated memory space.  Cold-start latency
(module load + compile + VM setup) is what Fig. 2a compares against container
cold starts.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.sim.costs import CostModel, DEFAULT_COST_MODEL
from repro.sim.ledger import CostCategory, CostLedger, CpuDomain
from repro.wasm.module import WasmModule
from repro.wasm.vm import WasmVM


# Members charged per operation, bound once (see repro.sim.ledger).
_COLD_START = CostCategory.COLD_START
_USER = CpuDomain.USER


class RuntimeKind(enum.Enum):
    """The runtimes compared in the evaluation."""

    WASMEDGE = "wasmedge"
    RUNC = "runc"
    ROADRUNNER = "roadrunner"


class WasmRuntime:
    """Creates and configures Wasm VMs (the WasmEdge role in the paper)."""

    def __init__(
        self,
        ledger: CostLedger,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        self.ledger = ledger
        self.cost_model = cost_model
        self._vm_counter = 0

    def create_vm(
        self,
        name: Optional[str] = None,
        tenant: str = "default",
        workflow: str = "default",
        materialize: bool = True,
        charge_cold_start: bool = False,
    ) -> WasmVM:
        """Create a sandboxed VM, optionally charging the VM setup cost."""
        self._vm_counter += 1
        vm_name = name or "wasmedge-vm-%d" % self._vm_counter
        if charge_cold_start:
            self.ledger.charge(
                _COLD_START,
                self.cost_model.wasm_vm_setup,
                cpu_domain=_USER,
                label="wasm-vm-setup:%s" % vm_name,
            )
        return WasmVM(
            name=vm_name,
            ledger=self.ledger,
            cost_model=self.cost_model,
            tenant=tenant,
            workflow=workflow,
            materialize=materialize,
        )

    def load_module(self, vm: WasmVM, module: WasmModule, charge_cold_start: bool = False):
        """Instantiate ``module`` in ``vm``; optionally charge compile time."""
        if charge_cold_start:
            compile_time = self.cost_model.transfer_time(
                module.binary_size, self.cost_model.wasm_instantiate_bandwidth
            )
            self.ledger.charge(
                _COLD_START,
                compile_time,
                cpu_domain=_USER,
                nbytes=module.binary_size,
                copied=True,
                label="wasm-compile:%s" % module.name,
            )
        return vm.instantiate(module)

    def cold_start_time(self, module: WasmModule) -> float:
        """Total cold-start latency for a function packaged as ``module``."""
        return self.cost_model.wasm_vm_setup + self.cost_model.transfer_time(
            module.binary_size, self.cost_model.wasm_instantiate_bandwidth
        )

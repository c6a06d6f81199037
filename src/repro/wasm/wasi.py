"""WASI: the host interface Wasm functions must use for I/O.

Wasm follows deny-by-default; any interaction with the host (files, sockets,
clocks) goes through WASI host calls.  Each call marshals arguments across the
VM boundary and copies data in or out of linear memory — the overhead the
paper's Fig. 2 motivates and that the WasmEdge baseline pays on every byte it
sends or receives over HTTP.
"""

from __future__ import annotations

from repro.kernel.process import Process
from repro.payload import Payload
from repro.sim.ledger import CostCategory, CpuDomain
from repro.wasm.module import WasmInstance
from repro.wasm.vm import WasmVM


# Members charged per operation, bound once (see repro.sim.ledger).
_WASM_IO = CostCategory.WASM_IO
_USER = CpuDomain.USER


class WasiError(RuntimeError):
    """Raised when a WASI capability is missing or misused."""


class WasiInterface:
    """WASI host-call layer for one VM, bound to the host process running it."""

    def __init__(self, vm: WasmVM, process: Process) -> None:
        self.vm = vm
        self.process = process

    # -- internals ------------------------------------------------------------

    def _charge_call(self, label: str) -> None:
        seconds = self.vm.cost_model.wasi_call_overhead
        self.vm.ledger.charge(
            _WASM_IO,
            seconds,
            cpu_domain=_USER,
            label="wasi:%s" % label,
        )
        self.process.charge_cpu(_USER, seconds)

    def _charge_boundary_copy(self, nbytes: int, label: str) -> None:
        seconds = self.vm.cost_model.wasm_io_time(nbytes)
        self.vm.ledger.charge(
            _WASM_IO,
            seconds,
            cpu_domain=_USER,
            nbytes=nbytes,
            copied=True,
            label="wasi-copy:%s" % label,
        )
        self.process.charge_cpu(_USER, seconds)

    # -- data movement across the VM boundary --------------------------------------

    def copy_out(self, instance: WasmInstance, address: int, length: int) -> Payload:
        """Copy ``length`` bytes from linear memory to a host buffer."""
        self._require_wasi(instance)
        self._charge_call("copy_out:%s" % instance.name)
        payload = instance.memory.read_payload(address, length)
        self._charge_boundary_copy(length, instance.name)
        # The host-side staging buffer is real memory in the shim process.
        self.process.cgroup.memory.allocate(length)
        return payload

    def copy_in(self, instance: WasmInstance, payload: Payload) -> int:
        """Copy a host buffer into linear memory; returns the guest address.

        The host buffer's accounting stays with whoever allocated it: a
        buffer staged by :meth:`copy_out` is returned via
        :meth:`release_host_buffer` once the caller is done with it.  (The
        old unconditional free here charged the *receiving* shim for send-
        side staging it never allocated.)
        """
        self._require_wasi(instance)
        self._charge_call("copy_in:%s" % instance.name)
        address = instance.memory.allocate(payload.size)
        instance.memory.write_payload(address, payload)
        instance.set_input(address)
        self._charge_boundary_copy(payload.size, instance.name)
        return address

    def release_host_buffer(self, payload: Payload) -> None:
        """Release a host staging buffer created by :meth:`copy_out`."""
        self.process.cgroup.memory.free(payload.size)

    # -- classic WASI entry points (thin wrappers used by examples/tests) ----------------

    def sock_send(self, instance: WasmInstance, address: int, length: int) -> Payload:
        """``sock_send``: copy out of the VM; the caller pushes it to a socket."""
        return self.copy_out(instance, address, length)

    def sock_recv(self, instance: WasmInstance, payload: Payload) -> int:
        """``sock_recv``: copy a received buffer into the VM."""
        return self.copy_in(instance, payload)

    def _require_wasi(self, instance: WasmInstance) -> None:
        if not instance.module.requires_wasi:
            raise WasiError(
                "module %r was not granted WASI capabilities (deny-by-default)"
                % instance.module.name
            )

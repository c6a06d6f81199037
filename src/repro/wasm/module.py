"""Wasm modules and module instances.

A :class:`WasmModule` is the compiled artifact (the ``.wasm`` binary): a name,
a binary size and whether it needs WASI.  A :class:`WasmInstance` is that
module instantiated inside a VM, owning its own linear memory — the unit
Roadrunner's shim talks to.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.payload import Payload
from repro.record import TypedRecord
from repro.wasm.linear_memory import LinearMemory


class ModuleError(RuntimeError):
    """Raised for invalid module definitions or lookups."""


class _ModuleFields(NamedTuple):
    name: str
    binary_size: int = 3_190_000  # ~3.19 MB, the paper's Fig. 2a example binary
    requires_wasi: bool = False


class WasmModule(TypedRecord, _ModuleFields):
    """A compiled Wasm binary (a validated tuple record, see
    :class:`~repro.record.TypedRecord`)."""

    __slots__ = ()

    def __new__(
        cls, name: str, binary_size: int = 3_190_000, requires_wasi: bool = False
    ) -> "WasmModule":
        if not name:
            raise ModuleError("module name must be non-empty")
        if binary_size <= 0:
            raise ModuleError("binary_size must be positive")
        return tuple.__new__(cls, (name, binary_size, requires_wasi))


class WasmInstance:
    """A module instantiated inside a Wasm VM, with its own linear memory."""

    def __init__(self, module: WasmModule, memory: LinearMemory, vm_name: str) -> None:
        self.module = module
        self.name = module.name
        self.memory = memory
        self.vm_name = vm_name
        self._input_address: Optional[int] = None
        self._output_address: Optional[int] = None

    # -- guest-visible data slots --------------------------------------------------

    def set_input(self, address: int) -> None:
        """Record where the shim placed this instance's input payload."""
        self._input_address = address

    @property
    def input_address(self) -> Optional[int]:
        return self._input_address

    @property
    def output_address(self) -> Optional[int]:
        return self._output_address

    def produce_output(self, payload: Payload) -> int:
        """Guest-side helper: store an output payload and remember its address."""
        address = self.memory.store_payload(payload)
        self._output_address = address
        return address

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "WasmInstance(module=%r, vm=%r)" % (self.module.name, self.vm_name)

"""The guest-side Roadrunner data-access API (the paper's Table 1).

These are the calls a function compiled to Wasm makes from *inside* the VM:

==============================  =====================================================
``allocate_memory(len)``        reserve linear memory for incoming data
``deallocate_memory(address)``  release it again
``locate_memory_region(data)``  find the (pointer, length) of data to be sent
``send_to_host(addr, len)``     hand that region to the shim for transfer
==============================  =====================================================

They operate on the function's own linear memory, so they cost (almost)
nothing; the expensive part — moving data across the VM boundary — happens in
the shim and is charged there.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.registry import MemoryRegionRegistry
from repro.payload import Payload
from repro.wasm.module import WasmInstance


class ApiError(RuntimeError):
    """Raised for invalid guest-side API usage."""


class FunctionDataApi:
    """Table 1's "Function"-side API, bound to one module instance."""

    def __init__(self, instance: WasmInstance, registry: MemoryRegionRegistry,
                 workflow: str = "default", tenant: str = "default") -> None:
        self.instance = instance
        self.registry = registry
        self.workflow = workflow
        self.tenant = tenant

    # -- memory management ------------------------------------------------------

    def allocate_memory(self, length: int) -> int:
        """Allocate ``length`` bytes of linear memory; returns the address."""
        return self.instance.memory.allocate(length)

    def deallocate_memory(self, address: int) -> None:
        """Release a previous allocation."""
        self.instance.memory.deallocate(address)

    # -- data management --------------------------------------------------------------

    def locate_memory_region(self, data: Payload) -> Tuple[int, int]:
        """Return the (pointer, length) of ``data`` inside linear memory.

        If the payload is not yet resident (the usual case for a freshly
        produced result), it is stored first — that is the guest writing its
        own output, not a transfer copy.
        """
        if data.size <= 0:
            raise ApiError("cannot locate an empty payload")
        address = self.instance.memory.store_payload(data)
        return self.instance.memory.locate(address)

    def send_to_host(self, address: int, length: int) -> None:
        """Expose [address, address+length) to the shim for transfer."""
        # Validate against the function's own memory before registering: a
        # bogus region must fail in the guest, not later in the shim.
        self.instance.memory.read_payload(address, length)
        self.registry.register(
            self.instance.name,
            address,
            length,
            workflow=self.workflow,
            tenant=self.tenant,
        )

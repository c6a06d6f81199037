"""Wasm linear memory: contiguous, byte-addressable, bounds-checked.

The memory grows in 64 KiB Wasm pages and exposes a small guest-side
allocator, mirroring the ``allocate_memory`` / ``deallocate_memory`` functions
of the paper's Table 1.  Two operating modes share the same interface:

* **materialized** (default) — a real ``bytearray`` backs the memory; raw
  reads and writes move actual bytes and payload integrity can be verified.
* **modeled** — no backing array is kept; allocations, bounds checks and
  payload bookkeeping still happen, but only payload descriptors move.  This
  is what lets the experiment harness sweep 500 MB payloads without turning
  the benchmark into a host memcpy test.

All accesses are bounds-checked; a violation raises
:class:`MemoryAccessError`, matching Wasm's trap-on-out-of-bounds semantics
("the function execution simply fails without affecting other parts of the
system", Sec. 7).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.payload import Payload, PayloadError
from repro.sim.costs import WASM_PAGE_SIZE
from repro.sim.ledger import MemoryMeter


class MemoryAccessError(RuntimeError):
    """Out-of-bounds or otherwise invalid linear memory access (a Wasm trap)."""


class OutOfMemoryError(RuntimeError):
    """The allocator could not satisfy a request within ``max_pages``."""


class AllocationError(RuntimeError):
    """Invalid allocator usage (double free, unknown address)."""


class LinearMemory:
    """A single module instance's linear memory."""

    #: Allocations start above a small reserved region (module data/stack),
    #: like wasm-ld's default data layout.
    RESERVED_BYTES = 1024

    def __init__(
        self,
        initial_pages: int = 2,
        max_pages: int = 4096,
        materialize: bool = True,
        meter: Optional[MemoryMeter] = None,
        name: str = "memory",
    ) -> None:
        if initial_pages < 1:
            raise MemoryAccessError("linear memory needs at least one page")
        if max_pages < initial_pages:
            raise MemoryAccessError("max_pages must be >= initial_pages")
        self.name = name
        self._pages = initial_pages
        self._max_pages = max_pages
        self._materialize = materialize
        self._buffer: Optional[bytearray] = (
            bytearray(initial_pages * WASM_PAGE_SIZE) if materialize else None
        )
        self._meter = meter
        # Allocator state: address -> size for live allocations, plus a free list.
        self._allocations: Dict[int, int] = {}
        self._free_list: Dict[int, int] = {}
        self._bump = self.RESERVED_BYTES
        # Virtual payload segments (modeled mode): address -> Payload.
        self._segments: Dict[int, Payload] = {}
        if meter is not None:
            meter.allocate(initial_pages * WASM_PAGE_SIZE if materialize else 0)

    # -- geometry ---------------------------------------------------------------

    @property
    def pages(self) -> int:
        return self._pages

    @property
    def size_bytes(self) -> int:
        return self._pages * WASM_PAGE_SIZE

    @property
    def max_pages(self) -> int:
        return self._max_pages

    @property
    def materialized(self) -> bool:
        return self._materialize

    def grow(self, delta_pages: int) -> int:
        """Grow the memory by ``delta_pages``; returns the previous page count.

        Mirrors ``memory.grow``: growing beyond ``max_pages`` raises
        :class:`OutOfMemoryError` (instead of Wasm's -1 return, which is too
        easy to ignore in Python).
        """
        if delta_pages < 0:
            raise MemoryAccessError("cannot grow by a negative number of pages")
        new_pages = self._pages + delta_pages
        if new_pages > self._max_pages:
            raise OutOfMemoryError(
                "grow to %d pages exceeds the limit of %d pages" % (new_pages, self._max_pages)
            )
        previous = self._pages
        self._pages = new_pages
        if self._buffer is not None:
            self._buffer.extend(bytes(delta_pages * WASM_PAGE_SIZE))
        if self._meter is not None and self._materialize:
            self._meter.allocate(delta_pages * WASM_PAGE_SIZE)
        return previous

    def _check_range(self, address: int, length: int) -> None:
        if address < 0 or length < 0:
            raise MemoryAccessError(
                "negative address or length (address=%d, length=%d)" % (address, length)
            )
        if address + length > self.size_bytes:
            raise MemoryAccessError(
                "access [%d, %d) is out of bounds for memory of %d bytes"
                % (address, address + length, self.size_bytes)
            )

    # -- allocator -----------------------------------------------------------------

    def allocate(self, length: int) -> int:
        """Reserve ``length`` bytes and return the start address.

        A first-fit free list is consulted before bump allocation; memory
        grows automatically up to ``max_pages``.
        """
        if length <= 0:
            raise AllocationError("allocation length must be positive, got %r" % length)
        # First fit from the free list.
        for address, size in sorted(self._free_list.items()):
            if size >= length:
                del self._free_list[address]
                if size > length:
                    self._free_list[address + length] = size - length
                self._allocations[address] = length
                self._meter_allocate(length)
                return address
        address = self._bump
        end = address + length
        if end > self.size_bytes:
            needed_pages = -(-(end - self.size_bytes) // WASM_PAGE_SIZE)
            self.grow(needed_pages)
        self._bump = end
        self._allocations[address] = length
        self._meter_allocate(length)
        return address

    def _meter_allocate(self, length: int) -> None:
        # In modeled mode the meter tracks logical allocations instead of
        # backing pages.  Free-list reuse charges too: ``deallocate`` freed
        # those bytes from the meter, so re-occupying the slot re-allocates
        # them (skipping it made the paired deallocate an over-free).
        if self._meter is not None and not self._materialize:
            self._meter.allocate(length)

    def deallocate(self, address: int) -> int:
        """Release an allocation; returns the freed length."""
        if address not in self._allocations:
            raise AllocationError("address %d is not an active allocation" % address)
        length = self._allocations.pop(address)
        self._free_list[address] = length
        self._segments.pop(address, None)
        if self._meter is not None and not self._materialize:
            self._meter.free(length)
        return length

    def allocation_size(self, address: int) -> int:
        """Size of the live allocation starting at ``address``."""
        if address not in self._allocations:
            raise AllocationError("address %d is not an active allocation" % address)
        return self._allocations[address]

    @property
    def allocated_bytes(self) -> int:
        return sum(self._allocations.values())

    @property
    def live_allocations(self) -> int:
        return len(self._allocations)

    # -- raw byte access ----------------------------------------------------------------

    def read(self, address: int, length: int) -> bytes:
        """Read raw bytes (materialized memories only)."""
        self._check_range(address, length)
        if self._buffer is None:
            raise MemoryAccessError(
                "raw reads require a materialized memory; use read_payload instead"
            )
        return bytes(self._buffer[address : address + length])

    def write(self, address: int, data: bytes) -> None:
        """Write raw bytes (materialized memories only)."""
        self._check_range(address, len(data))
        if self._buffer is None:
            raise MemoryAccessError(
                "raw writes require a materialized memory; use write_payload instead"
            )
        self._buffer[address : address + len(data)] = data

    # -- payload access -------------------------------------------------------------------

    def write_payload(self, address: int, payload: Payload) -> None:
        """Store a payload at ``address`` (which must be a live allocation).

        Real payloads are written into the backing array when the memory is
        materialized; virtual payloads are tracked as segments.
        """
        if address not in self._allocations:
            raise MemoryAccessError(
                "payloads must be written into an active allocation (address=%d)" % address
            )
        if self._allocations[address] < payload.size:
            raise MemoryAccessError(
                "allocation of %d bytes at %d cannot hold a %d byte payload"
                % (self._allocations[address], address, payload.size)
            )
        if self._materialize and payload.is_real:
            self.write(address, payload.data)  # type: ignore[arg-type]
        self._segments[address] = payload

    def read_payload(self, address: int, length: int) -> Payload:
        """Read the payload stored at ``address``."""
        segment = self._segments.get(address)
        if segment is not None:
            if segment.size != length:
                raise MemoryAccessError(
                    "stored payload at %d has %d bytes, read requested %d"
                    % (address, segment.size, length)
                )
            if self._materialize and segment.is_real:
                # Re-read from the backing store so corruption would be caught.
                return Payload.from_bytes(self.read(address, length), segment.content_type)
            return segment
        if self._buffer is None:
            raise MemoryAccessError("no payload stored at address %d" % address)
        return Payload.from_bytes(self.read(address, length))

    def store_payload(self, payload: Payload) -> int:
        """Allocate space for ``payload``, write it, and return the address."""
        if payload.size == 0:
            raise PayloadError("cannot store an empty payload")
        address = self.allocate(payload.size)
        self.write_payload(address, payload)
        return address

    def locate(self, address: int) -> "tuple[int, int]":
        """Return the (pointer, length) pair for the allocation at ``address``."""
        return address, self.allocation_size(address)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "materialized" if self._materialize else "modeled"
        return "LinearMemory(%s, pages=%d, allocations=%d)" % (
            mode,
            self._pages,
            len(self._allocations),
        )

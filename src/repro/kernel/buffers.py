"""Kernel buffers and page references.

A :class:`KernelBuffer` is data sitting in kernel space: either a *copy* of a
user-space payload (the result of a ``write``/``send`` syscall) or a set of
*gifted pages* that still belong to user memory but were mapped into the
kernel by ``vmsplice`` (no copy).  Pipes and sockets move these buffers; the
distinction between copied and gifted is what makes the near-zero-copy claim
testable — a test can assert that Roadrunner's network path never produces a
copied buffer on the send side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.payload import Payload
from repro.sim.costs import HOST_PAGE_SIZE
from repro.sim.ledger import MemoryMeter


@dataclass
class KernelBuffer:
    """A chunk of payload held in kernel space."""

    payload: Payload
    #: True when the buffer was produced by physically copying user memory;
    #: False when the pages were gifted/mapped (vmsplice, splice).
    copied: bool
    #: Label of the process or component that produced the buffer.
    producer: str = ""
    #: Meter the buffer's kernel memory was charged to.  The charge follows
    #: the buffer (splices move pages by reference, deliveries cross
    #: processes), so the release must hit the same meter the allocation did
    #: — not whichever process happens to consume the buffer.
    owner: Optional[MemoryMeter] = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.payload.size

    @property
    def pages(self) -> int:
        if self.payload.size == 0:
            return 0
        return -(-self.payload.size // HOST_PAGE_SIZE)

    @property
    def zero_copy(self) -> bool:
        return not self.copied

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "copied" if self.copied else "gifted"
        return "KernelBuffer(%s, %d bytes, from %s)" % (kind, self.size, self.producer)

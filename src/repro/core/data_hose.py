"""The virtual data hose: a purpose-built kernel pipe for one transfer.

"Roadrunner establishes a virtual data hose that allows data written to it to
prompt the kernel to allocate memory buffers and retain them in its address
space.  When a read operation occurs, Roadrunner leverages the kernel to
reuse the same memory pages for the target function instead of copying the
data" (Sec. 1).  Concretely it is a pipe sized to the message, fed with
``vmsplice`` and drained with ``splice`` (Algorithm 1).
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.buffers import KernelBuffer
from repro.kernel.kernel import Kernel
from repro.kernel.pipes import DEFAULT_PIPE_CAPACITY, Pipe
from repro.kernel.process import Process
from repro.payload import Payload
from repro.sim.ledger import CostCategory, CpuDomain


# Members charged per operation, bound once (see repro.sim.ledger).
_SPLICE = CostCategory.SPLICE
_KERNEL = CpuDomain.KERNEL


class DataHoseError(RuntimeError):
    """Raised for invalid data-hose usage."""


class VirtualDataHose:
    """A single-use, message-sized kernel pipe."""

    def __init__(
        self,
        kernel: Kernel,
        owner: Process,
        capacity: Optional[int] = None,
        name: str = "vdh",
    ) -> None:
        self.kernel = kernel
        self.owner = owner
        self.name = name
        self._closed = False
        # Creating the hose costs a pipe2() plus an F_SETPIPE_SZ resize.
        self.kernel.syscall(owner, "pipe2(%s)" % name)
        self.kernel.ledger.charge(
            _SPLICE,
            self.kernel.cost_model.data_hose_setup_overhead,
            cpu_domain=_KERNEL,
            label="hose-setup:%s" % name,
        )
        owner.charge_cpu(_KERNEL, self.kernel.cost_model.data_hose_setup_overhead)
        self.pipe = Pipe(
            kernel=kernel,
            capacity=capacity if capacity is not None else DEFAULT_PIPE_CAPACITY,
            name=name,
        )

    # -- producer side ---------------------------------------------------------------

    def gift(self, payload: Payload) -> KernelBuffer:
        """vmsplice the payload's pages into the hose (zero-copy)."""
        self._require_open()
        return self.pipe.vmsplice_in(self.owner, payload)

    def push_copy(self, payload: Payload) -> KernelBuffer:
        """Conventional write into the hose (used by the no-zero-copy ablation)."""
        self._require_open()
        return self.pipe.write(self.owner, payload)

    # -- consumer side ------------------------------------------------------------------

    def drain_to_user(self) -> Payload:
        """Read the hose contents back into user space (one copy)."""
        self._require_open()
        return self.pipe.read(self.owner)

    def drain_mapped(self) -> Payload:
        """Map the hose contents into the consumer without a copy.

        Models the receive-side ``vmsplice`` of Algorithm 1: the pages the
        kernel buffered from the socket are reused for the target function's
        staging buffer instead of being copied out.
        """
        self._require_open()
        buffer = self.pipe.pop_buffer(self.owner)
        self.kernel.syscall(self.owner, "vmsplice(%s)" % self.name)
        self.kernel.splice_pages(self.owner, buffer.size, label="vmsplice-out:%s" % self.name)
        return buffer.payload

    # -- lifecycle ----------------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close_all(self) -> None:
        """Close both ends of the hose (Algorithm 1's ``close_all``)."""
        if self._closed:
            return
        self.kernel.syscall(self.owner, "close(%s)" % self.name, count=2)
        self._closed = True

    def _require_open(self) -> None:
        if self._closed:
            raise DataHoseError("data hose %r is closed" % self.name)

    def __enter__(self) -> "VirtualDataHose":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close_all()

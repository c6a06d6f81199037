"""Pipes, including the zero-copy ``vmsplice`` / ``splice`` paths.

A pipe is the kernel object behind Roadrunner's *virtual data hose*
(Sec. 4.3, Algorithm 1):

* ``vmsplice_in`` maps user pages into the pipe — the payload enters kernel
  space without a copy;
* ``pop_buffer`` / ``adopt_buffer`` move a buffer to another kernel object
  (a socket or another pipe) by reference;
* the conventional ``write`` / ``read`` calls copy, and are what the HTTP
  baselines pay.

Buffers retain their provenance (copied vs gifted), so tests and ablations can
assert exactly how many bytes were physically copied on each path.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.kernel.buffers import KernelBuffer
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.payload import Payload


class PipeError(RuntimeError):
    """Raised for invalid pipe operations (overflow, reading an empty pipe)."""


#: Default pipe capacity, matching Linux's 64 KiB * 16 ring of pipe buffers.
DEFAULT_PIPE_CAPACITY = 16 * 64 * 1024


class Pipe:
    """A unidirectional kernel pipe holding a FIFO of kernel buffers.

    The capacity check models ``F_SETPIPE_SZ``: Roadrunner resizes the data
    hose to fit the message, while a default-sized pipe forces chunking.  For
    simplicity a single buffer may not exceed the capacity, but the pipe
    accepts any number of buffers (the reader is assumed to drain it).
    """

    def __init__(
        self,
        kernel: Kernel,
        capacity: int = DEFAULT_PIPE_CAPACITY,
        name: str = "pipe",
    ) -> None:
        if capacity <= 0:
            raise PipeError("pipe capacity must be positive")
        self.kernel = kernel
        self.capacity = capacity
        self.name = name
        self._buffers: Deque[KernelBuffer] = deque()

    # -- producer side --------------------------------------------------------------

    def write(self, process: Process, payload: Payload) -> KernelBuffer:
        """Conventional ``write``: copies the payload into kernel buffers."""
        self._check_fits(payload.size)
        self.kernel.syscall(process, "write(%s)" % self.name,
                            count=self.kernel.cost_model.syscall_count(payload.size))
        self.kernel.copy_user_to_kernel(process, payload.size, label="pipe-write:%s" % self.name)
        buffer = KernelBuffer(payload=payload.copy(), copied=True, producer=process.name)
        self._push(buffer, process)
        return buffer

    def vmsplice_in(self, process: Process, payload: Payload) -> KernelBuffer:
        """``vmsplice``: gift the payload's user pages to the pipe (no copy)."""
        self._check_fits(payload.size)
        self.kernel.syscall(process, "vmsplice(%s)" % self.name)
        self.kernel.splice_pages(process, payload.size, label="vmsplice:%s" % self.name)
        buffer = KernelBuffer(payload=payload, copied=False, producer=process.name)
        self._push(buffer, process)
        return buffer

    # -- consumer side -----------------------------------------------------------------

    def read(self, process: Process, length: Optional[int] = None) -> Payload:
        """Conventional ``read``: copies the next buffer out to user space."""
        buffer = self._pop()
        if length is not None and buffer.size != length:
            raise PipeError(
                "short read: buffer has %d bytes, caller expected %d" % (buffer.size, length)
            )
        self.kernel.syscall(process, "read(%s)" % self.name,
                            count=self.kernel.cost_model.syscall_count(buffer.size))
        self.kernel.copy_kernel_to_user(process, buffer.size, label="pipe-read:%s" % self.name)
        self.kernel.release_kernel_buffer(buffer)
        return buffer.payload

    def pop_buffer(self, process: Process) -> KernelBuffer:
        """Hand the next buffer to another kernel object (socket splice).

        The buffer stays in kernel space, so its memory charge travels with
        it (``buffer.owner``); the adopting object releases it when the
        buffer finally leaves the kernel.
        """
        return self._pop()

    def adopt_buffer(self, process: Process, buffer: KernelBuffer) -> None:
        """Accept a buffer spliced in from another kernel object."""
        self._check_fits(buffer.size)
        self._push(buffer, process)

    # -- inspection -----------------------------------------------------------------------

    @property
    def buffered_bytes(self) -> int:
        return sum(b.size for b in self._buffers)

    @property
    def pending_buffers(self) -> int:
        return len(self._buffers)

    def peek(self) -> List[KernelBuffer]:
        return list(self._buffers)

    # -- internals ---------------------------------------------------------------------------

    def _check_fits(self, nbytes: int) -> None:
        if nbytes > self.capacity:
            raise PipeError(
                "buffer of %d bytes exceeds pipe capacity of %d bytes "
                "(resize the pipe or chunk the payload)" % (nbytes, self.capacity)
            )

    def _push(self, buffer: KernelBuffer, process: Process) -> None:
        self._buffers.append(buffer)
        # A spliced-in buffer that is already owned moves by reference: no
        # new pages, no second charge.
        self.kernel.track_kernel_buffer(process, buffer)

    def _pop(self) -> KernelBuffer:
        if not self._buffers:
            raise PipeError("read from an empty pipe %r" % self.name)
        return self._buffers.popleft()

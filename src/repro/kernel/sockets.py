"""Sockets: Unix-domain IPC and TCP connections.

* :class:`UnixSocketPair` is the IPC mechanism of Roadrunner's kernel-space
  mode (Sec. 5): data is copied user->kernel on the sender and kernel->user
  on the receiver, but never serialized and never touches the network stack.
* :class:`TcpConnection` carries bytes between two nodes over a network link.
  It supports both the conventional copy path (``send``) used by the HTTP
  baselines and the splice path (``send_spliced``) used by Roadrunner's
  network mode, where kernel buffers arriving from a pipe are handed straight
  to the NIC without an extra user-space round trip.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.kernel.buffers import KernelBuffer
from repro.kernel.kernel import Kernel
from repro.kernel.pipes import Pipe
from repro.kernel.process import Process
from repro.payload import Payload
from repro.sim.ledger import CostCategory, CpuDomain


# Members charged per operation, bound once (see repro.sim.ledger).
_IPC = CostCategory.IPC
_NETWORK = CostCategory.NETWORK
_WASM_IO = CostCategory.WASM_IO
_KERNEL = CpuDomain.KERNEL
_NO_CPU = CpuDomain.NONE
_USER = CpuDomain.USER


class SocketError(RuntimeError):
    """Raised for invalid socket operations."""


class UnixSocketPair:
    """A connected pair of Unix-domain sockets on one host.

    ``batch_factor`` > 1 models ``sendmmsg``/``recvmmsg``-style syscall
    batching: the same bytes move, but several chunk-sized writes share one
    kernel entry (the paper's future-work extension, Sec. 9).
    """

    def __init__(self, kernel: Kernel, name: str = "uds", batch_factor: int = 1) -> None:
        if batch_factor < 1:
            raise SocketError("batch_factor must be >= 1")
        self.kernel = kernel
        self.name = name
        self.batch_factor = batch_factor
        self._queue: Deque[KernelBuffer] = deque()
        self._connected = False
        self.copied_bytes = 0

    def _chunk_syscalls(self, nbytes: int) -> int:
        chunks = self.kernel.cost_model.syscall_count(nbytes)
        return max(1, -(-chunks // self.batch_factor))

    def connect(self, client: Process, server: Process) -> None:
        """Model connect/accept: one syscall each plus the setup overhead."""
        self.kernel.syscall(client, "connect(%s)" % self.name)
        self.kernel.syscall(server, "accept(%s)" % self.name)
        self.kernel.ledger.charge(
            _IPC,
            self.kernel.cost_model.unix_socket_setup_overhead,
            cpu_domain=_KERNEL,
            label="uds-setup:%s" % self.name,
        )
        self._connected = True

    @property
    def connected(self) -> bool:
        return self._connected

    def send(self, sender: Process, payload: Payload) -> None:
        """Send: copy user->kernel and enqueue for the peer."""
        self._require_connected()
        chunk_syscalls = self._chunk_syscalls(payload.size)
        self.kernel.syscall(sender, "sendmsg(%s)" % self.name, count=chunk_syscalls)
        # The streaming copy through the socket buffer is charged at the
        # effective Unix-socket bandwidth, which already folds in both copies;
        # we book the sender's half here and the receiver's half in recv().
        half_copy = payload.size / self.kernel.cost_model.unix_socket_bandwidth / 2.0
        self.kernel.ledger.charge(
            _IPC,
            half_copy,
            cpu_domain=_KERNEL,
            nbytes=payload.size,
            copied=True,
            label="uds-send:%s" % self.name,
        )
        sender.charge_cpu(_KERNEL, half_copy)
        buffer = KernelBuffer(payload=payload.copy(), copied=True, producer=sender.name)
        self.kernel.track_kernel_buffer(sender, buffer)
        self._queue.append(buffer)
        self.copied_bytes += payload.size

    def recv(self, receiver: Process) -> Payload:
        """Receive: wake the peer (context switch) and copy kernel->user."""
        self._require_connected()
        if not self._queue:
            raise SocketError("recv on empty socket %r" % self.name)
        buffer = self._queue.popleft()
        self.kernel.context_switch(receiver)
        chunk_syscalls = self._chunk_syscalls(buffer.size)
        self.kernel.syscall(receiver, "recvmsg(%s)" % self.name, count=chunk_syscalls)
        half_copy = buffer.size / self.kernel.cost_model.unix_socket_bandwidth / 2.0
        self.kernel.ledger.charge(
            _IPC,
            half_copy,
            cpu_domain=_KERNEL,
            nbytes=buffer.size,
            copied=True,
            label="uds-recv:%s" % self.name,
        )
        receiver.charge_cpu(_KERNEL, half_copy)
        # Release against the meter that allocated (the sender's): the old
        # receiver-side free charged the wrong process's accounting.
        self.kernel.release_kernel_buffer(buffer)
        self.copied_bytes += buffer.size
        return buffer.payload

    @property
    def pending(self) -> int:
        return len(self._queue)

    def _require_connected(self) -> None:
        if not self._connected:
            raise SocketError("socket %r is not connected" % self.name)


class TcpConnection:
    """A TCP connection between a process on one node and one on another.

    The connection needs a *link* object providing
    ``transfer_seconds(nbytes, wasi_mediated=False)`` — see
    :class:`repro.net.link.NetworkLink`.
    """

    def __init__(
        self,
        source_kernel: Kernel,
        target_kernel: Kernel,
        link,
        name: str = "tcp",
    ) -> None:
        self.source_kernel = source_kernel
        self.target_kernel = target_kernel
        self.link = link
        self.name = name
        self._in_flight: Deque[KernelBuffer] = deque()
        self._established = False

    def establish(self, client: Process, server: Process) -> None:
        """Three-way handshake: one RTT plus socket setup on both ends."""
        self.source_kernel.syscall(client, "connect(%s)" % self.name)
        self.target_kernel.syscall(server, "accept(%s)" % self.name)
        setup = self.source_kernel.cost_model.tcp_setup_overhead
        self.source_kernel.ledger.charge(
            _NETWORK,
            setup,
            cpu_domain=_NO_CPU,
            label="tcp-handshake:%s" % self.name,
        )
        self._established = True

    @property
    def established(self) -> bool:
        return self._established

    # -- send paths -----------------------------------------------------------------

    def send(self, sender: Process, payload: Payload, wasi_mediated: bool = False) -> None:
        """Conventional send: copy user->kernel, then put bytes on the wire."""
        self._require_established()
        chunk_syscalls = self.source_kernel.cost_model.syscall_count(payload.size)
        self.source_kernel.syscall(sender, "send(%s)" % self.name, count=chunk_syscalls)
        self.source_kernel.copy_user_to_kernel(sender, payload.size, label="tcp-send:%s" % self.name)
        buffer = KernelBuffer(payload=payload.copy(), copied=True, producer=sender.name)
        self._transmit(sender, buffer, wasi_mediated)

    def send_spliced(self, sender: Process, source_pipe: Pipe) -> None:
        """Roadrunner path: splice the pipe's buffer into the socket (no copy)."""
        self._require_established()
        buffer = source_pipe.pop_buffer(sender)
        self.source_kernel.syscall(sender, "splice(%s->%s)" % (source_pipe.name, self.name))
        self.source_kernel.splice_pages(sender, buffer.size, label="splice-to-socket:%s" % self.name)
        self._transmit(sender, buffer, False)

    def _transmit(self, sender: Process, buffer: KernelBuffer, wasi_mediated: bool) -> None:
        wire_seconds = self.link.transfer_seconds(buffer.size, wasi_mediated=wasi_mediated)
        self.source_kernel.ledger.charge(
            _NETWORK,
            wire_seconds,
            cpu_domain=_NO_CPU,
            nbytes=buffer.size,
            copied=False,
            label="wire:%s" % self.name,
        )
        self._in_flight.append(buffer)

    # -- receive paths ------------------------------------------------------------------

    def recv(self, receiver: Process, wasi_mediated: bool = False) -> Payload:
        """Conventional receive: NIC -> kernel buffer -> copy to user space."""
        buffer = self._take_delivery(receiver)
        chunk_syscalls = self.target_kernel.cost_model.syscall_count(buffer.size)
        self.target_kernel.syscall(receiver, "recv(%s)" % self.name, count=chunk_syscalls)
        self.target_kernel.copy_kernel_to_user(receiver, buffer.size, label="tcp-recv:%s" % self.name)
        if wasi_mediated:
            # Each WASI socket read adds a host-call round trip per chunk.
            extra = chunk_syscalls * self.target_kernel.cost_model.wasi_call_overhead
            self.target_kernel.ledger.charge(
                _WASM_IO,
                extra,
                cpu_domain=_USER,
                label="wasi-recv:%s" % self.name,
            )
            receiver.charge_cpu(_USER, extra)
        return buffer.payload

    def recv_spliced(self, receiver: Process, target_pipe: Pipe) -> KernelBuffer:
        """Roadrunner path: splice the arriving socket buffer into a pipe."""
        buffer = self._take_delivery(receiver)
        self.target_kernel.syscall(receiver, "splice(%s->%s)" % (self.name, target_pipe.name))
        self.target_kernel.splice_pages(receiver, buffer.size, label="splice-from-socket:%s" % self.name)
        # The buffer keeps its provenance: it was never copied on the target
        # host's user/kernel boundary.
        arrived = KernelBuffer(payload=buffer.payload, copied=False, producer=self.name)
        target_pipe.adopt_buffer(receiver, arrived)
        return arrived

    def _take_delivery(self, receiver: Process) -> KernelBuffer:
        if not self._in_flight:
            raise SocketError("recv on connection %r with nothing in flight" % self.name)
        self.target_kernel.context_switch(receiver)
        buffer = self._in_flight.popleft()
        # Delivery retires the source-side buffer: whatever meter was charged
        # when the bytes entered kernel space (a spliced pipe buffer keeps
        # its owner across the wire) is released now.
        self.target_kernel.release_kernel_buffer(buffer)
        return buffer

    @property
    def pending(self) -> int:
        return len(self._in_flight)

    def _require_established(self) -> None:
        if not self._established:
            raise SocketError("connection %r is not established" % self.name)

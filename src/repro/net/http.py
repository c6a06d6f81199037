"""HTTP transport: the conventional data path between serverless functions.

State-of-the-art serverless functions exchange data over HTTP (Fig. 1a): the
source serializes, a client POSTs the body, the kernel copies it through the
socket stack (twice per host), and the target deserializes.  This transport
charges everything except serialization (which the baselines do explicitly)
so the breakdown panels can separate "transfer" from "serialization".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.kernel.sockets import TcpConnection
from repro.net.link import NetworkLink
from repro.net.nic import Nic
from repro.payload import Payload
from repro.sim.ledger import CostCategory, CpuDomain


@dataclass(frozen=True)
class HttpResponse:
    """Result of one request/response exchange."""

    status: int
    body: Payload


class HttpTransport:
    """One logical HTTP client/server pair between two processes."""

    def __init__(
        self,
        source_kernel: Kernel,
        target_kernel: Kernel,
        link: NetworkLink,
        name: str = "http",
    ) -> None:
        self.source_kernel = source_kernel
        self.target_kernel = target_kernel
        self.link = link
        self.name = name
        self.requests = 0
        self._source_nic = Nic(source_kernel, name="%s-src-nic" % name)
        self._target_nic = Nic(target_kernel, name="%s-dst-nic" % name)
        self._connection: TcpConnection = None  # opened by the first request, then reused

    def post(
        self,
        sender: Process,
        receiver: Process,
        body: Payload,
        sender_in_wasm: bool = False,
        receiver_in_wasm: bool = False,
    ) -> HttpResponse:
        """POST ``body`` from ``sender`` to ``receiver`` and return the delivery."""
        cost_model = self.source_kernel.cost_model
        # Per-request client/server overhead: connection handling, routing,
        # header parsing, async executor wake-ups.  Wasm endpoints pay more
        # because all of it is WASI-mediated.
        overhead = (
            cost_model.http_request_overhead_wasm
            if sender_in_wasm or receiver_in_wasm
            else cost_model.http_request_overhead_native
        )
        self.source_kernel.ledger.charge(
            CostCategory.HTTP,
            overhead,
            cpu_domain=CpuDomain.USER,
            label="http-overhead:%s" % self.name,
        )
        sender.charge_cpu(CpuDomain.USER, overhead)

        request_bytes = body.size + cost_model.http_header_bytes
        on_wire = body.with_size(request_bytes) if body.is_virtual else Payload.from_bytes(
            body.data + b"\r\n" * (cost_model.http_header_bytes // 2)
        )

        if self._connection is None:
            self._connection = TcpConnection(
                self.source_kernel, self.target_kernel, self.link, name="%s-conn" % self.name
            )
            self._connection.establish(sender, receiver)
        connection = self._connection

        connection.send(sender, on_wire, wasi_mediated=sender_in_wasm)
        if self.link.is_remote:
            self._source_nic.transmit(sender, request_bytes)
            self._target_nic.receive(receiver, request_bytes)
        delivered = connection.recv(receiver, wasi_mediated=receiver_in_wasm)

        self.requests += 1
        # Strip the synthetic header bytes again so the receiver sees the body.
        if delivered.is_virtual:
            response_body = body
        else:
            response_body = Payload.from_bytes(delivered.data[: body.size], body.content_type)
        return HttpResponse(status=200, body=response_body)

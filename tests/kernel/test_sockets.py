"""Unit tests for Unix-domain sockets and TCP connections."""

import pytest

from repro.kernel.kernel import Kernel
from repro.kernel.pipes import Pipe
from repro.kernel.sockets import SocketError, TcpConnection, UnixSocketPair
from repro.net.link import LoopbackLink, NetworkLink
from repro.payload import Payload
from repro.sim.costs import CostModel
from repro.sim.ledger import CostCategory, CostLedger


@pytest.fixture
def ledger():
    return CostLedger()


@pytest.fixture
def kernel(ledger):
    return Kernel(ledger=ledger, node_name="node-a")


def test_unix_socket_round_trip(kernel):
    a = kernel.create_process("shim-a")
    b = kernel.create_process("shim-b")
    socket = UnixSocketPair(kernel)
    socket.connect(a, b)
    payload = Payload.random(32 * 1024)
    socket.send(a, payload)
    assert socket.pending == 1
    delivered = socket.recv(b)
    payload.require_match(delivered)
    assert socket.pending == 0


def test_unix_socket_requires_connection(kernel):
    a = kernel.create_process("a")
    socket = UnixSocketPair(kernel)
    with pytest.raises(SocketError):
        socket.send(a, Payload.random(10))


def test_unix_socket_recv_empty_rejected(kernel):
    a = kernel.create_process("a")
    b = kernel.create_process("b")
    socket = UnixSocketPair(kernel)
    socket.connect(a, b)
    with pytest.raises(SocketError):
        socket.recv(b)


def test_unix_socket_copies_and_switches_context(kernel, ledger):
    a = kernel.create_process("a")
    b = kernel.create_process("b")
    socket = UnixSocketPair(kernel)
    socket.connect(a, b)
    payload = Payload.random(64 * 1024)
    socket.send(a, payload)
    socket.recv(b)
    assert socket.copied_bytes == 2 * payload.size
    assert ledger.context_switches >= 1
    assert ledger.seconds(CostCategory.IPC) > 0


def _remote_pair(ledger):
    source = Kernel(ledger=ledger, node_name="edge")
    target = Kernel(ledger=ledger, node_name="cloud")
    link = NetworkLink(CostModel.paper_testbed(), name="edge<->cloud")
    return source, target, link


def test_tcp_send_recv_round_trip(ledger):
    source, target, link = _remote_pair(ledger)
    client = source.create_process("client")
    server = target.create_process("server")
    connection = TcpConnection(source, target, link)
    connection.establish(client, server)
    payload = Payload.random(16 * 1024)
    connection.send(client, payload)
    delivered = connection.recv(server)
    payload.require_match(delivered)


def test_tcp_requires_establishment(ledger):
    source, target, link = _remote_pair(ledger)
    client = source.create_process("client")
    connection = TcpConnection(source, target, link)
    with pytest.raises(SocketError):
        connection.send(client, Payload.random(10))


def test_tcp_recv_with_nothing_in_flight_rejected(ledger):
    source, target, link = _remote_pair(ledger)
    client = source.create_process("client")
    server = target.create_process("server")
    connection = TcpConnection(source, target, link)
    connection.establish(client, server)
    with pytest.raises(SocketError):
        connection.recv(server)


def test_conventional_send_copies_spliced_send_does_not(ledger):
    source, target, link = _remote_pair(ledger)
    client = source.create_process("client")
    server = target.create_process("server")
    payload = Payload.virtual(4 * 1024 * 1024)

    plain = TcpConnection(source, target, link, name="plain")
    plain.establish(client, server)
    plain.send(client, payload)
    copied_after_plain = ledger.copied_bytes
    assert copied_after_plain >= payload.size

    spliced = TcpConnection(source, target, link, name="spliced")
    spliced.establish(client, server)
    hose = Pipe(source, capacity=payload.size, name="hose")
    hose.vmsplice_in(client, payload)
    spliced.send_spliced(client, hose)
    # The spliced path adds no further copied bytes on the send side.
    assert ledger.copied_bytes == copied_after_plain


def test_recv_spliced_lands_in_target_pipe_without_copy(ledger):
    source, target, link = _remote_pair(ledger)
    client = source.create_process("client")
    server = target.create_process("server")
    connection = TcpConnection(source, target, link)
    connection.establish(client, server)
    payload = Payload.random(8 * 1024)
    source_pipe = Pipe(source, capacity=payload.size, name="src-hose")
    source_pipe.vmsplice_in(client, payload)
    connection.send_spliced(client, source_pipe)
    target_pipe = Pipe(target, capacity=payload.size, name="dst-hose")
    buffer = connection.recv_spliced(server, target_pipe)
    assert buffer.zero_copy
    assert target_pipe.pending_buffers == 1


def test_wire_time_dominates_for_remote_links(ledger):
    source, target, link = _remote_pair(ledger)
    client = source.create_process("client")
    server = target.create_process("server")
    connection = TcpConnection(source, target, link)
    connection.establish(client, server)
    payload = Payload.virtual(50 * 1024 * 1024)
    before = ledger.clock.now
    connection.send(client, payload)
    connection.recv(server)
    elapsed = ledger.clock.now - before
    assert ledger.seconds(CostCategory.NETWORK) > 0.8 * link.transfer_seconds(0)
    assert elapsed > payload.size / link.bandwidth


def test_loopback_link_is_not_remote():
    assert not LoopbackLink(CostModel.paper_testbed()).is_remote
    assert NetworkLink(CostModel.paper_testbed()).is_remote

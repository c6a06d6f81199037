"""Unit tests for the HTTP transport used by the baselines."""

import pytest

from repro.kernel.kernel import Kernel
from repro.net.http import HttpTransport
from repro.net.link import LoopbackLink, NetworkLink
from repro.payload import Payload
from repro.sim.costs import CostModel
from repro.sim.ledger import CostCategory, CostLedger


@pytest.fixture
def model():
    return CostModel.paper_testbed()


def _intranode_transport(ledger, model):
    kernel = Kernel(ledger=ledger, cost_model=model, node_name="node-a")
    sender = kernel.create_process("fn-a")
    receiver = kernel.create_process("fn-b")
    transport = HttpTransport(kernel, kernel, LoopbackLink(model))
    return transport, sender, receiver


def test_post_delivers_body_intact(model):
    ledger = CostLedger()
    transport, sender, receiver = _intranode_transport(ledger, model)
    body = Payload.random(16 * 1024)
    response = transport.post(sender, receiver, body)
    assert response.status == 200
    body.require_match(response.body)


def test_post_charges_http_overhead_and_copies(model):
    ledger = CostLedger()
    transport, sender, receiver = _intranode_transport(ledger, model)
    body = Payload.random(64 * 1024)
    transport.post(sender, receiver, body)
    assert ledger.seconds(CostCategory.HTTP) > 0
    assert ledger.copied_bytes >= 2 * body.size  # user->kernel and kernel->user
    assert ledger.syscalls > 0


def test_wasm_endpoints_pay_more_per_request(model):
    native_ledger = CostLedger()
    transport, sender, receiver = _intranode_transport(native_ledger, model)
    body = Payload.virtual(1024)
    transport.post(sender, receiver, body)

    wasm_ledger = CostLedger()
    wasm_transport, wasm_sender, wasm_receiver = _intranode_transport(wasm_ledger, model)
    wasm_transport.post(wasm_sender, wasm_receiver, body, sender_in_wasm=True, receiver_in_wasm=True)

    assert wasm_ledger.clock.now > native_ledger.clock.now


def test_remote_post_pays_wire_time(model):
    ledger = CostLedger()
    edge = Kernel(ledger=ledger, cost_model=model, node_name="edge")
    cloud = Kernel(ledger=ledger, cost_model=model, node_name="cloud")
    sender = edge.create_process("fn-a")
    receiver = cloud.create_process("fn-b")
    transport = HttpTransport(edge, cloud, NetworkLink(model))
    body = Payload.virtual(10 * 1024 * 1024)
    before = ledger.clock.now
    transport.post(sender, receiver, body)
    assert ledger.clock.now - before > body.size / model.network_bandwidth
    assert ledger.seconds(CostCategory.NETWORK) > 0


def test_virtual_bodies_round_trip_by_descriptor(model):
    ledger = CostLedger()
    transport, sender, receiver = _intranode_transport(ledger, model)
    body = Payload.virtual(5 * 1024 * 1024)
    response = transport.post(sender, receiver, body)
    body.require_match(response.body)
    assert response.body.is_virtual


def test_request_counter_increments(model):
    ledger = CostLedger()
    transport, sender, receiver = _intranode_transport(ledger, model)
    for _ in range(3):
        transport.post(sender, receiver, Payload.virtual(1024))
    assert transport.requests == 3

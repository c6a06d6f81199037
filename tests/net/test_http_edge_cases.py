"""Additional HTTP transport behaviours: connection reuse, headers."""

import pytest

from repro.kernel.kernel import Kernel
from repro.net.http import HttpTransport
from repro.net.link import LoopbackLink, NetworkLink
from repro.payload import Payload
from repro.sim.costs import CostModel
from repro.sim.ledger import CostCategory, CostLedger


def _setup(remote=False):
    model = CostModel.paper_testbed()
    ledger = CostLedger()
    source = Kernel(ledger=ledger, cost_model=model, node_name="src")
    target = source if not remote else Kernel(ledger=ledger, cost_model=model, node_name="dst")
    sender = source.create_process("fn-a")
    receiver = target.create_process("fn-b")
    link = NetworkLink(model) if remote else LoopbackLink(model)
    transport = HttpTransport(source, target, link)
    return ledger, transport, sender, receiver


def test_connection_reuse_pays_handshake_once():
    ledger, transport, sender, receiver = _setup()
    body = Payload.virtual(1024)
    transport.post(sender, receiver, body)
    first = ledger.breakdown().get("network", 0.0)
    transport.post(sender, receiver, body)
    second = ledger.breakdown().get("network", 0.0)
    # Second request adds wire time but no second handshake: the increment is
    # strictly smaller than the first request's network charge.
    assert second - first < first


def test_headers_add_a_fixed_number_of_bytes():
    ledger, transport, sender, receiver = _setup()
    model = CostModel.paper_testbed()
    for size in (10, 10_000):
        before = ledger.copied_bytes
        transport.post(sender, receiver, Payload.virtual(size))
        # The request is copied into the kernel and out again, headers included.
        assert ledger.copied_bytes - before == 2 * (size + model.http_header_bytes)


def test_remote_and_local_transports_share_the_same_interface():
    for remote in (False, True):
        ledger, transport, sender, receiver = _setup(remote=remote)
        body = Payload.random(32 * 1024, seed=5)
        response = transport.post(sender, receiver, body)
        body.require_match(response.body)
        assert ledger.seconds(CostCategory.HTTP) > 0

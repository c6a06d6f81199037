"""Unit tests for pipes: copy path vs vmsplice/splice zero-copy path."""

import pytest

from repro.kernel.kernel import Kernel
from repro.kernel.pipes import DEFAULT_PIPE_CAPACITY, Pipe, PipeError
from repro.payload import Payload
from repro.sim.ledger import CostCategory, CostLedger


@pytest.fixture
def kernel():
    return Kernel(ledger=CostLedger(), node_name="node-a")


@pytest.fixture
def process(kernel):
    return kernel.create_process("shim")


def test_write_then_read_round_trip(kernel, process):
    pipe = Pipe(kernel)
    payload = Payload.random(8 * 1024)
    pipe.write(process, payload)
    assert pipe.buffered_bytes == payload.size
    delivered = pipe.read(process)
    payload.require_match(delivered)
    assert pipe.pending_buffers == 0


def test_write_copies_vmsplice_does_not(kernel, process):
    pipe = Pipe(kernel)
    payload = Payload.random(64 * 1024)
    pipe.write(process, payload)
    copied_after_write = kernel.ledger.copied_bytes
    assert copied_after_write >= payload.size
    pipe.vmsplice_in(process, payload)
    # vmsplice gifts pages: no additional copied bytes.
    assert kernel.ledger.copied_bytes == copied_after_write
    assert kernel.ledger.reference_bytes >= payload.size


def test_vmsplice_buffer_remembers_provenance(kernel, process):
    pipe = Pipe(kernel)
    buffer = pipe.vmsplice_in(process, Payload.random(4096))
    assert buffer.zero_copy
    copied = pipe.write(process, Payload.random(4096))
    assert not copied.zero_copy


def test_vmsplice_is_faster_than_write_for_large_payloads(kernel, process):
    payload = Payload.virtual(8 * 1024 * 1024)
    pipe = Pipe(kernel, capacity=payload.size)
    before = kernel.ledger.clock.now
    pipe.vmsplice_in(process, payload)
    vmsplice_cost = kernel.ledger.clock.now - before
    before = kernel.ledger.clock.now
    pipe.write(process, payload)
    write_cost = kernel.ledger.clock.now - before
    assert vmsplice_cost < write_cost / 5


def test_capacity_overflow_rejected(kernel, process):
    pipe = Pipe(kernel, capacity=1024)
    with pytest.raises(PipeError):
        pipe.write(process, Payload.random(2048))
    with pytest.raises(PipeError):
        Pipe(kernel, capacity=0)


def test_read_empty_pipe_rejected(kernel, process):
    pipe = Pipe(kernel)
    with pytest.raises(PipeError):
        pipe.read(process)


def test_short_read_detected(kernel, process):
    pipe = Pipe(kernel)
    pipe.write(process, Payload.random(100))
    with pytest.raises(PipeError):
        pipe.read(process, length=50)


def test_splice_between_pipes_moves_reference(kernel, process):
    source = Pipe(kernel, name="src")
    target = Pipe(kernel, name="dst")
    payload = Payload.random(4096)
    source.vmsplice_in(process, payload)
    copied_before = kernel.ledger.copied_bytes
    target.adopt_buffer(process, source.pop_buffer(process))
    assert kernel.ledger.copied_bytes == copied_before
    assert target.pending_buffers == 1
    delivered = target.read(process)
    payload.require_match(delivered)


def test_fifo_ordering_preserved(kernel, process):
    pipe = Pipe(kernel, capacity=DEFAULT_PIPE_CAPACITY)
    first = Payload.from_text("first")
    second = Payload.from_text("second")
    pipe.write(process, first)
    pipe.write(process, second)
    assert pipe.read(process).data == first.data
    assert pipe.read(process).data == second.data


def test_pipe_charges_splice_category_for_gifted_pages(kernel, process):
    pipe = Pipe(kernel)
    pipe.vmsplice_in(process, Payload.random(4096))
    assert kernel.ledger.seconds(CostCategory.SPLICE) > 0

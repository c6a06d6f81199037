"""Unit tests for the kernel's boundary-crossing cost accounting."""

import pytest

from repro.kernel.kernel import Kernel, KernelError
from repro.payload import Payload
from repro.sim.costs import CostModel
from repro.sim.ledger import CostCategory, CostLedger, CpuDomain


@pytest.fixture
def kernel():
    return Kernel(ledger=CostLedger(), node_name="node-a")


def test_syscall_charges_kernel_cpu_and_counts(kernel):
    process = kernel.create_process("fn")
    seconds = kernel.syscall(process, "read", count=3)
    assert seconds == pytest.approx(3 * kernel.cost_model.syscall_overhead)
    assert kernel.ledger.syscalls == 3
    assert process.syscall_count == 3
    assert process.cgroup.kernel_cpu_seconds == pytest.approx(seconds)


def test_syscall_requires_positive_count(kernel):
    process = kernel.create_process("fn")
    with pytest.raises(KernelError):
        kernel.syscall(process, "read", count=0)


def test_context_switch_charges_and_counts(kernel):
    a = kernel.create_process("a")
    b = kernel.create_process("b")
    kernel.context_switch(a)
    assert kernel.ledger.context_switches == 1
    assert a.context_switches == 1
    assert b.context_switches == 0


def test_boundary_copies_are_charged_as_copies(kernel):
    process = kernel.create_process("fn")
    nbytes = 1024 * 1024
    kernel.copy_user_to_kernel(process, nbytes)
    kernel.copy_kernel_to_user(process, nbytes)
    assert kernel.ledger.copied_bytes == 2 * nbytes
    assert kernel.ledger.seconds(CostCategory.MEMCPY) > 0
    assert process.cgroup.kernel_cpu_seconds > 0


def test_splice_moves_bytes_by_reference(kernel):
    process = kernel.create_process("fn")
    nbytes = 10 * 1024 * 1024
    kernel.splice_pages(process, nbytes)
    assert kernel.ledger.copied_bytes == 0
    assert kernel.ledger.reference_bytes == nbytes


def test_splice_is_cheaper_than_copy(kernel):
    process = kernel.create_process("fn")
    nbytes = 50 * 1024 * 1024
    splice_s = kernel.splice_pages(process, nbytes)
    copy_s = kernel.copy_user_to_kernel(process, nbytes)
    assert splice_s < copy_s / 10


def test_unknown_pid_rejected(kernel):
    with pytest.raises(KernelError):
        kernel.process(999)


def test_kernel_buffer_memory_tracks_meter(kernel):
    from repro.kernel.buffers import KernelBuffer

    process = kernel.create_process("fn")
    buffer = KernelBuffer(payload=Payload.virtual(1024), copied=True, producer="fn")
    kernel.track_kernel_buffer(process, buffer)
    assert buffer.owner is process.cgroup.memory
    assert process.cgroup.memory.current_bytes == 1024
    kernel.release_kernel_buffer(buffer)
    assert buffer.owner is None
    assert process.cgroup.memory.current_bytes == 0


def test_kernel_buffer_release_follows_the_owning_meter(kernel):
    # The release must hit the meter that allocated, even when a different
    # process consumes the buffer — the old receiver-side free silently
    # underflowed the consumer's meter (clamped) and leaked the producer's.
    from repro.kernel.buffers import KernelBuffer

    producer = kernel.create_process("producer")
    consumer = kernel.create_process("consumer")
    buffer = KernelBuffer(payload=Payload.virtual(2048), copied=True, producer="producer")
    kernel.track_kernel_buffer(producer, buffer)
    # Re-tracking an owned buffer (a splice adoption) must not double-charge.
    kernel.track_kernel_buffer(consumer, buffer)
    assert consumer.cgroup.memory.current_bytes == 0
    kernel.release_kernel_buffer(buffer)
    assert producer.cgroup.memory.current_bytes == 0
    # A second release is a no-op, not a double free.
    kernel.release_kernel_buffer(buffer)
    assert producer.cgroup.memory.current_bytes == 0

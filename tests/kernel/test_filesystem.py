"""Tests for the virtual filesystem."""

import pytest

from repro.kernel.filesystem import FileSystemError, VirtualFileSystem
from repro.kernel.kernel import Kernel
from repro.payload import Payload
from repro.sim.ledger import CostCategory, CostLedger


@pytest.fixture
def kernel():
    return Kernel(ledger=CostLedger(), node_name="node-a")


@pytest.fixture
def filesystem(kernel):
    return VirtualFileSystem(kernel)


def test_write_then_read_round_trip(kernel, filesystem):
    process = kernel.create_process("fn")
    payload = Payload.random(64 * 1024, seed=41)
    filesystem.write_file(process, "/data/input.bin", payload)
    assert filesystem.exists("/data/input.bin")
    assert filesystem.size("/data/input.bin") == payload.size
    restored = filesystem.read_file(process, "/data/input.bin")
    payload.require_match(restored)
    assert filesystem.reads == 1 and filesystem.writes == 1


def test_file_io_charges_syscalls_and_copies(kernel, filesystem):
    process = kernel.create_process("fn")
    payload = Payload.random(512 * 1024, seed=42)
    filesystem.write_file(process, "/big.bin", payload)
    filesystem.read_file(process, "/big.bin")
    assert kernel.ledger.syscalls >= 6  # open/write.../close + open/read.../close
    assert kernel.ledger.copied_bytes >= 2 * payload.size
    assert kernel.ledger.seconds(CostCategory.MEMCPY) > 0


def test_namespace_operations_and_errors(kernel, filesystem):
    process = kernel.create_process("fn")
    filesystem.write_file(process, "/a/x.bin", Payload.random(16))
    filesystem.write_file(process, "/a/y.bin", Payload.random(16))
    filesystem.write_file(process, "/b/z.bin", Payload.random(16))
    assert filesystem.listdir("/a/") == ["/a/x.bin", "/a/y.bin"]
    filesystem.unlink(process, "/a/x.bin")
    assert not filesystem.exists("/a/x.bin")
    with pytest.raises(FileSystemError):
        filesystem.read_file(process, "/missing")
    with pytest.raises(FileSystemError):
        filesystem.write_file(process, "relative/path", Payload.random(8))
    with pytest.raises(FileSystemError):
        filesystem.write_file(process, "/empty", Payload.from_bytes(b""))

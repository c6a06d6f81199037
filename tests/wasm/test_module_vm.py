"""Unit tests for Wasm modules, instances, VMs and the host memory API."""

import pytest

from repro.payload import Payload
from repro.sim.ledger import CostCategory, CostLedger
from repro.wasm.module import ModuleError, WasmModule
from repro.wasm.vm import VmError, WasmVM


@pytest.fixture
def vm():
    return WasmVM(name="vm-test", ledger=CostLedger())


def test_module_validation():
    with pytest.raises(ModuleError):
        WasmModule(name="")
    with pytest.raises(ModuleError):
        WasmModule(name="m", binary_size=0)


def test_instantiate_creates_per_module_memory(vm):
    a = vm.instantiate(WasmModule(name="a"))
    b = vm.instantiate(WasmModule(name="b"))
    assert a.memory is not b.memory
    assert vm.instance("a") is a
    assert len(vm.instances) == 2


def test_duplicate_instantiation_rejected(vm):
    vm.instantiate(WasmModule(name="a"))
    with pytest.raises(VmError):
        vm.instantiate(WasmModule(name="a"))


def test_unknown_instance_lookup_rejected(vm):
    with pytest.raises(VmError):
        vm.instance("missing")


def test_terminate_removes_instance(vm):
    vm.instantiate(WasmModule(name="a"))
    vm.terminate("a")
    with pytest.raises(VmError):
        vm.instance("a")
    with pytest.raises(VmError):
        vm.terminate("a")


def test_guest_input_output_flow(vm):
    instance = vm.instantiate(WasmModule(name="fn"))
    assert instance.input_address is None
    payload = Payload.from_text("input data")
    address = instance.memory.store_payload(payload)
    instance.set_input(address)
    assert instance.input_address == address
    assert instance.produce_output(payload) == instance.output_address
    stored = instance.memory.read_payload(instance.output_address, payload.size)
    payload.require_match(stored)


def test_host_api_read_write_charges_wasm_io(vm):
    instance = vm.instantiate(WasmModule(name="fn"))
    api = vm.host_api()
    payload = Payload.random(8192)
    before = vm.ledger.seconds(CostCategory.WASM_IO)
    address = api.allocate_memory("fn", payload.size)
    api.write_memory_host("fn", payload, address)
    read_back = api.read_memory_host("fn", address, payload.size)
    after = vm.ledger.seconds(CostCategory.WASM_IO)
    payload.require_match(read_back)
    assert after > before
    assert vm.ledger.copied_bytes >= 2 * payload.size


def test_host_api_locate_and_deallocate(vm):
    instance = vm.instantiate(WasmModule(name="fn"))
    address = instance.memory.store_payload(Payload.random(100))
    api = vm.host_api()
    assert api.locate_memory_region("fn", address) == (address, 100)
    assert api.deallocate_memory("fn", address) == 100


def test_vm_charges_baseline_memory(vm):
    # The VM itself occupies resident memory even before any payloads.
    assert vm.meter.peak_bytes > 0

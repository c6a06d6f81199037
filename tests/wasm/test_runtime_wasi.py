"""Unit tests for the Wasm runtime (cold start) and the WASI layer."""

import pytest

from repro.kernel.kernel import Kernel
from repro.payload import Payload
from repro.sim.costs import CostModel
from repro.sim.ledger import CostCategory, CostLedger
from repro.wasm.module import WasmModule
from repro.wasm.runtime import RuntimeKind, WasmRuntime
from repro.wasm.wasi import WasiError, WasiInterface


@pytest.fixture
def runtime():
    return WasmRuntime(ledger=CostLedger())


def test_create_vm_names_are_unique(runtime):
    a = runtime.create_vm()
    b = runtime.create_vm()
    assert a.name != b.name
    assert runtime.kind is RuntimeKind.WASMEDGE


def test_cold_start_scales_with_binary_size(runtime):
    small = WasmModule(name="small", binary_size=50_000)
    big = WasmModule(name="big", binary_size=5_000_000)
    assert runtime.cold_start_time(big) > runtime.cold_start_time(small)


def test_cold_start_charges_ledger_when_requested(runtime):
    vm = runtime.create_vm(charge_cold_start=True)
    runtime.load_module(vm, WasmModule(name="fn"), charge_cold_start=True)
    assert runtime.ledger.seconds(CostCategory.COLD_START) > 0


def test_wasm_cold_start_is_below_container_cold_start():
    """Fig. 2a: Wasm binaries cold start much faster than container images."""
    from repro.container.image import ContainerImage
    from repro.container.runc import RunCRuntime

    ledger = CostLedger()
    model = CostModel.paper_testbed()
    kernel = Kernel(ledger=ledger, cost_model=model)
    runc = RunCRuntime(kernel=kernel, ledger=ledger, cost_model=model)
    wasm = WasmRuntime(ledger=ledger, cost_model=model)
    container_cold = runc.cold_start_time(ContainerImage.hello_world())
    wasm_cold = wasm.cold_start_time(WasmModule(name="hello", binary_size=47_800))
    assert wasm_cold < container_cold / 5


def _wasi_setup(requires_wasi=True):
    ledger = CostLedger()
    runtime = WasmRuntime(ledger=ledger)
    vm = runtime.create_vm()
    instance = runtime.load_module(
        vm, WasmModule(name="fn", requires_wasi=requires_wasi)
    )
    kernel = Kernel(ledger=ledger, cost_model=vm.cost_model)
    process = kernel.create_process("shim-fn")
    wasi = WasiInterface(vm=vm, process=process, kernel=kernel)
    return ledger, vm, instance, wasi


def test_wasi_copy_out_and_in_round_trip():
    ledger, vm, instance, wasi = _wasi_setup()
    payload = Payload.random(4096)
    address = instance.memory.store_payload(payload)
    host_copy = wasi.copy_out(instance, address, payload.size)
    payload.require_match(host_copy)
    new_address = wasi.copy_in(instance, host_copy)
    payload.require_match(instance.memory.read_payload(new_address, payload.size))
    assert wasi.host_calls == 2
    assert ledger.seconds(CostCategory.WASM_IO) > 0


def test_wasi_denied_for_modules_without_capability():
    ledger, vm, instance, wasi = _wasi_setup(requires_wasi=False)
    address = instance.memory.store_payload(Payload.random(64))
    with pytest.raises(WasiError):
        wasi.copy_out(instance, address, 64)


def test_wasi_sock_wrappers_behave_like_copies():
    ledger, vm, instance, wasi = _wasi_setup()
    payload = Payload.random(1024)
    address = instance.memory.store_payload(payload)
    out = wasi.sock_send(instance, address, payload.size)
    payload.require_match(out)
    in_address = wasi.sock_recv(instance, out)
    payload.require_match(instance.memory.read_payload(in_address, payload.size))


def test_wasi_charges_user_cpu_to_the_shim_process():
    ledger, vm, instance, wasi = _wasi_setup()
    payload = Payload.random(64 * 1024)
    address = instance.memory.store_payload(payload)
    wasi.copy_out(instance, address, payload.size)
    assert wasi.process.cgroup.user_cpu_seconds > 0

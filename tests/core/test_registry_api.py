"""Unit tests for the memory-region registry and the guest-side data API."""

import pytest

from repro.core.api import ApiError, FunctionDataApi
from repro.core.registry import MemoryRegion, MemoryRegionRegistry, RegistryError
from repro.payload import Payload
from repro.sim.ledger import CostLedger
from repro.wasm.module import WasmModule
from repro.wasm.vm import WasmVM


def test_region_validation():
    with pytest.raises(RegistryError):
        MemoryRegion(function="", address=0, length=1)
    with pytest.raises(RegistryError):
        MemoryRegion(function="fn", address=-1, length=1)
    with pytest.raises(RegistryError):
        MemoryRegion(function="fn", address=0, length=0)
    region = MemoryRegion(function="fn", address=100, length=50)
    assert region.end == 150
    assert region.contains(120, 10)
    assert not region.contains(120, 50)


def test_register_validate_and_unregister():
    registry = MemoryRegionRegistry()
    registry.register("fn-a", 1024, 4096, workflow="wf", tenant="t1")
    found = registry.validate_access("fn-a", 2048, 100, workflow="wf", tenant="t1")
    assert found.address == 1024
    assert len(registry) == 1
    registry.unregister("fn-a", 1024)
    with pytest.raises(RegistryError):
        registry.validate_access("fn-a", 2048, 100)
    with pytest.raises(RegistryError):
        registry.unregister("fn-a", 1024)


def test_out_of_bounds_access_rejected():
    registry = MemoryRegionRegistry()
    registry.register("fn-a", 0, 100)
    with pytest.raises(RegistryError):
        registry.validate_access("fn-a", 50, 100)
    with pytest.raises(RegistryError):
        registry.validate_access("fn-b", 0, 10)


def test_cross_tenant_access_rejected_even_inside_bounds():
    registry = MemoryRegionRegistry()
    registry.register("fn-a", 0, 100, workflow="wf-1", tenant="tenant-1")
    with pytest.raises(RegistryError):
        registry.validate_access("fn-a", 0, 10, tenant="tenant-2")
    with pytest.raises(RegistryError):
        registry.validate_access("fn-a", 0, 10, workflow="wf-2")


def test_latest_returns_most_recent_registration():
    registry = MemoryRegionRegistry()
    registry.register("fn-a", 0, 10)
    registry.register("fn-a", 100, 20)
    assert registry.latest("fn-a").address == 100
    with pytest.raises(RegistryError):
        registry.latest("fn-z")


def test_clear_empties_the_registry():
    registry = MemoryRegionRegistry()
    registry.register("fn-a", 0, 10)
    registry.register("fn-b", 0, 10)
    assert len(registry) == 2
    registry.clear()
    assert len(registry) == 0


@pytest.fixture
def guest_api():
    vm = WasmVM(name="vm", ledger=CostLedger())
    instance = vm.instantiate(WasmModule(name="fn-a"))
    registry = MemoryRegionRegistry()
    return FunctionDataApi(instance, registry, workflow="wf", tenant="t1"), instance, registry


def test_api_allocate_and_deallocate(guest_api):
    api, instance, _ = guest_api
    address = api.allocate_memory(256)
    assert instance.memory.allocation_size(address) == 256
    api.deallocate_memory(address)
    with pytest.raises(Exception):
        instance.memory.allocation_size(address)


def test_api_locate_and_send_to_host_registers_region(guest_api):
    api, instance, registry = guest_api
    payload = Payload.random(512)
    address, length = api.locate_memory_region(payload)
    assert length == payload.size
    api.send_to_host(address, length)
    region = registry.latest("fn-a")
    assert (region.address, region.length) == (address, length)
    assert region.workflow == "wf" and region.tenant == "t1"
    read_back = api.instance.memory.read_payload(address, length)
    payload.require_match(read_back)


def test_api_rejects_empty_payload_and_bogus_regions(guest_api):
    api, _, _ = guest_api
    with pytest.raises(ApiError):
        api.locate_memory_region(Payload.from_bytes(b""))
    with pytest.raises(Exception):
        api.send_to_host(10_000_000, 64)

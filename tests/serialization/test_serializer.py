"""Unit tests for the environment-aware serializer."""

import pytest

from repro.kernel.cgroups import Cgroup
from repro.payload import Payload
from repro.serialization.serializer import ExecutionEnvironment, Serializer
from repro.sim.costs import CostModel
from repro.sim.ledger import CostCategory, CostLedger, MemoryMeter


def make_serializer(environment):
    ledger = CostLedger()
    return Serializer(ledger=ledger, environment=environment), ledger


def test_serialize_real_payload_round_trip():
    serializer, _ = make_serializer(ExecutionEnvironment.NATIVE)
    payload = Payload.random(2048)
    wire = serializer.serialize(payload)
    restored = serializer.deserialize(wire)
    payload.require_match(restored)


def test_serialize_charges_serialization_categories():
    serializer, ledger = make_serializer(ExecutionEnvironment.NATIVE)
    payload = Payload.random(2048)
    serializer.deserialize(serializer.serialize(payload))
    assert ledger.seconds(CostCategory.SERIALIZATION) > 0
    assert ledger.seconds(CostCategory.DESERIALIZATION) > 0


def test_wasm_serialization_costs_more_than_native():
    native, native_ledger = make_serializer(ExecutionEnvironment.NATIVE)
    wasm, wasm_ledger = make_serializer(ExecutionEnvironment.WASM)
    payload = Payload.virtual(20 * 1024 * 1024)
    native.serialize(payload)
    wasm.serialize(payload)
    serialization = CostCategory.SERIALIZATION
    assert wasm_ledger.seconds(serialization) > 3 * native_ledger.seconds(serialization)


def test_virtual_payload_serialization_inflates_size():
    serializer, _ = make_serializer(ExecutionEnvironment.NATIVE)
    payload = Payload.virtual(1_000_000)
    wire = serializer.serialize(payload)
    assert wire.size > payload.size
    restored = serializer.deserialize(wire, original_size=payload.size)
    assert restored.size == payload.size
    payload.require_match(restored)


def test_virtual_deserialization_requires_original_size():
    serializer, _ = make_serializer(ExecutionEnvironment.NATIVE)
    wire = serializer.serialize(Payload.virtual(1000))
    with pytest.raises(ValueError):
        serializer.deserialize(wire)


def test_cgroup_accounting_is_attributed_when_provided():
    serializer, _ = make_serializer(ExecutionEnvironment.WASM)
    cgroup = Cgroup("sandbox", memory=MemoryMeter())
    serializer.serialize(Payload.virtual(1_000_000), cgroup=cgroup)
    assert cgroup.user_cpu_seconds > 0
    assert cgroup.memory.peak_bytes > 0

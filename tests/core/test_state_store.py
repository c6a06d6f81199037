"""Tests for the shim-managed state store (future-work extension)."""

import pytest

from repro.core.state import STATE_CAPACITY_BYTES, ShimStateStore, StateError
from repro.core.user_space import UserSpaceChannel
from repro.payload import Payload


def make_stores(pair):
    cluster, _, (a, b) = pair
    channel = UserSpaceChannel(cluster)
    return (
        ShimStateStore(channel.shim_for(a)),
        ShimStateStore(channel.shim_for(b)),
    )


def test_put_get_round_trip(shared_vm_pair):
    store, _ = make_stores(shared_vm_pair)
    payload = Payload.random(4096, seed=1)
    version = store.put("model-weights", payload)
    assert version == 1
    payload.require_match(store.get("model-weights"))
    assert store.keys() == ["model-weights"]
    assert store.used_bytes == payload.size


def test_put_replaces_and_bumps_version(shared_vm_pair):
    store, _ = make_stores(shared_vm_pair)
    store.put("counter", Payload.from_text("1"))
    version = store.put("counter", Payload.from_text("2"))
    assert version == 2
    assert store.get("counter").data == b"2"
    assert store.version("counter") == 2


def test_missing_key_and_invalid_inputs(shared_vm_pair):
    store, _ = make_stores(shared_vm_pair)
    with pytest.raises(StateError):
        store.get("missing")
    with pytest.raises(StateError):
        store.put("", Payload.from_text("x"))
    with pytest.raises(StateError):
        store.put("k", Payload.from_bytes(b""))


def test_capacity_is_enforced(shared_vm_pair):
    store, _ = make_stores(shared_vm_pair)
    half = STATE_CAPACITY_BYTES // 2
    store.put("small", Payload.virtual(half))
    with pytest.raises(StateError):
        store.put("big", Payload.virtual(half + 1))
    # Replacing within capacity still works.
    store.put("small", Payload.virtual(STATE_CAPACITY_BYTES - 100))
    assert store.used_bytes == STATE_CAPACITY_BYTES - 100


def test_delete_and_clear(shared_vm_pair):
    store, _ = make_stores(shared_vm_pair)
    store.put("a", Payload.random(128))
    store.put("b", Payload.random(128))
    store.delete("a")
    assert store.keys() == ["b"]
    with pytest.raises(StateError):
        store.delete("a")
    store.clear()
    assert store.keys() == []
    assert store.used_bytes == 0


def test_share_with_requires_trust(shared_vm_pair):
    source, target = make_stores(shared_vm_pair)
    payload = Payload.random(256, seed=7)
    source.put("features", payload)
    source.share_with(target, "features")
    payload.require_match(target.get("features"))


def test_state_survives_unrelated_transfers(shared_vm_pair):
    cluster, _, (a, b) = shared_vm_pair
    channel = UserSpaceChannel(cluster)
    store = ShimStateStore(channel.shim_for(a))
    payload = Payload.random(1024, seed=11)
    store.put("session", payload)
    channel.transfer(a, b, Payload.random(64 * 1024, seed=12))
    payload.require_match(store.get("session"))

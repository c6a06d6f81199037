"""Unit tests for payloads and workload generators."""

import pytest

from repro.payload import Payload, PayloadError
from repro.workloads.generators import (
    DEFAULT_FANOUT_DEGREES,
    DEFAULT_SWEEP_SIZES_MB,
    WorkloadError,
    make_payload,
)
from repro.workloads.scenarios import (
    ScenarioError,
    image_frame,
    sensor_batch,
    traffic_records,
)


def test_payload_from_bytes_and_text():
    data = b"roadrunner"
    payload = Payload.from_bytes(data)
    assert payload.size == len(data) and payload.is_real
    text = Payload.from_text("beep beep")
    assert text.content_type == "text/plain"
    assert text.data.decode("utf-8") == "beep beep"


def test_payload_random_is_deterministic():
    assert Payload.random(1024, seed=5).data == Payload.random(1024, seed=5).data
    assert Payload.random(1024, seed=5).data != Payload.random(1024, seed=6).data


def test_virtual_payload_has_no_data():
    payload = Payload.virtual(10_000)
    assert payload.is_virtual and len(payload) == 10_000
    assert payload.crc() == 0


def test_payload_size_mismatch_rejected():
    with pytest.raises(PayloadError):
        Payload(size=5, data=b"abc")
    with pytest.raises(PayloadError):
        Payload(size=-1)
    with pytest.raises(PayloadError):
        Payload.virtual(-1)


def test_payload_matching_and_integrity():
    original = Payload.random(512, seed=1)
    copy = original.copy()
    assert original.matches(copy)
    original.require_match(copy)
    other = Payload.random(512, seed=2)
    assert not original.matches(other)
    with pytest.raises(PayloadError):
        original.require_match(other)


def test_with_size_preserves_origin():
    original = Payload.random(100)
    derived = original.with_size(150)
    assert derived.size == 150
    assert derived.origin_fingerprint == original.origin_fingerprint
    assert original.matches(derived)


def test_make_payload_real_and_virtual():
    real = make_payload(0.01, real=True)
    assert real.is_real and real.size == int(0.01 * 1024 * 1024)
    virtual = make_payload(100)
    assert virtual.is_virtual and virtual.size == 100 * 1024 * 1024
    with pytest.raises(WorkloadError):
        make_payload(0)


def test_sweep_parameters_match_paper_ranges():
    assert (min(DEFAULT_SWEEP_SIZES_MB), max(DEFAULT_SWEEP_SIZES_MB)) == (1, 500)
    assert (min(DEFAULT_FANOUT_DEGREES), max(DEFAULT_FANOUT_DEGREES)) == (1, 100)


def test_image_frame_has_header_and_deterministic_pixels():
    frame = image_frame(width=64, height=32)
    assert frame.content_type == "image/raw"
    assert frame.size == 5 + 64 * 32 * 3
    assert frame.data == image_frame(width=64, height=32).data
    with pytest.raises(ScenarioError):
        image_frame(width=0)


def test_sensor_batch_and_traffic_records_are_json_text():
    import json

    batch = sensor_batch(readings=10)
    parsed = json.loads(batch.data.decode("utf-8"))
    assert len(parsed["readings"]) == 10
    records = traffic_records(vehicles=7)
    parsed = json.loads(records.data.decode("utf-8"))
    assert len(parsed["records"]) == 7
    with pytest.raises(ScenarioError):
        sensor_batch(readings=0)
    with pytest.raises(ScenarioError):
        traffic_records(vehicles=0)

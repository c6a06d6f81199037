"""Tests for the request-trace / Chrome-trace export."""

import pytest

from repro.metrics.timeline import (
    export_federation_trace,
    export_traffic_trace,
    federation_trace_events,
    read_trace_events,
    request_trace_events,
)
from repro.obs.spans import RequestTrace


def _trace(request_id=1, node="node-0", dispatch_s=1.0, end_s=3.0,
           cold_start_s=0.5, outcome="completed"):
    return RequestTrace(
        tenant="tenant-1",
        request_id=request_id,
        request_class="standard",
        outcome=outcome,
        arrival_s=0.0,
        end_s=end_s,
        dispatch_s=dispatch_s,
        cold_start_s=cold_start_s,
        node=node,
        replica="replica-1",
    )


def test_request_trace_events_nest_stages_inside_request_track():
    events = request_trace_events([_trace()])
    async_events = [e for e in events if e["ph"] in ("b", "e")]
    # One outer begin/end pair plus three stage pairs, all on the same track.
    assert len(async_events) == 8
    assert {e["id"] for e in async_events} == {"req-tenant-1-1"}
    begins = [e for e in async_events if e["ph"] == "b"]
    names = [e["name"] for e in begins]
    assert names == ["req-tenant-1-1", "queue", "cold_start", "service"]
    # Stage slices stay within the outer request slice.
    outer_ts = begins[0]["ts"]
    outer_end = [e for e in async_events if e["ph"] == "e"][-1]["ts"]
    for event in async_events:
        assert outer_ts <= event["ts"] <= outer_end


def test_request_trace_events_span_ordering_is_lifecycle_order():
    events = request_trace_events([_trace()])
    stage_begins = [e for e in events if e["ph"] == "b" and e["name"] != "req-tenant-1-1"]
    timestamps = [e["ts"] for e in stage_begins]
    assert timestamps == sorted(timestamps)
    # queue [0, 0.5], cold_start [0.5, 1.0], service [1.0, 3.0] in microseconds
    assert timestamps == [0.0, pytest.approx(0.5e6), pytest.approx(1.0e6)]


def test_one_perfetto_pid_per_node():
    traces = [
        _trace(request_id=1, node="node-0"),
        _trace(request_id=2, node="node-1"),
        _trace(request_id=3, node="node-0"),
        _trace(request_id=4, node="", dispatch_s=None, end_s=2.0,
               cold_start_s=0.0, outcome="dropped"),  # synthetic gateway lane
    ]
    events = request_trace_events(traces)
    metadata = [e for e in events if e["ph"] == "M"]
    lanes = {e["args"]["name"]: e["pid"] for e in metadata}
    assert set(lanes) == {"traffic/node-0", "traffic/node-1", "traffic/gateway"}
    assert len(set(lanes.values())) == 3  # distinct pids, one per node
    for event in events:
        if event["ph"] in ("b", "e") and "tenant-1-1" in str(event["id"]):
            assert event["pid"] == lanes["traffic/node-0"]


def test_zero_duration_stage_slices_survive_export():
    # Dispatched on arrival with no cold start: queue and cold_start slices
    # are zero-width but still present, so the waterfall and the timeline
    # never disagree about stage counts.
    trace = _trace(dispatch_s=0.0, cold_start_s=0.0, end_s=2.0)
    events = request_trace_events([trace])
    begins = {e["name"]: e["ts"] for e in events if e["ph"] == "b"}
    ends = {e["name"]: e["ts"] for e in events if e["ph"] == "e"}
    assert begins["queue"] == ends["queue"] == 0.0
    assert begins["cold_start"] == ends["cold_start"] == 0.0
    assert ends["service"] == pytest.approx(2.0e6)


def test_traffic_trace_round_trips(tmp_path):
    traces = [_trace(request_id=1), _trace(request_id=2, node="node-1")]
    path = export_traffic_trace(str(tmp_path / "trace.json"), traces)
    events = read_trace_events(path)
    async_events = [e for e in events if e["ph"] in ("b", "e")]
    assert len(async_events) == 16  # two requests, four begin/end pairs each
    assert events == request_trace_events(traces)
    # Args survive the round trip.
    outer = [e for e in async_events if e["name"] == "req-tenant-1-1"][0]
    assert outer["args"]["outcome"] == "completed"
    assert outer["args"]["replica"] == "replica-1"


def test_federation_trace_events_group_pids_by_region():
    events = federation_trace_events(
        {
            "eu-west": [_trace(request_id=1, node="eu-west-0"),
                        _trace(request_id=2, node="eu-west-1")],
            "us-east": [_trace(request_id=3, node="us-east-0")],
            "ap-south": [],  # a region that served nothing still gets a lane
        }
    )
    metadata = [e for e in events if e["ph"] == "M"]
    names = [e["args"]["name"] for e in metadata]
    assert names == [
        "eu-west/eu-west-0",
        "eu-west/eu-west-1",
        "us-east/us-east-0",
        "ap-south/gateway",
    ]
    pids = [e["pid"] for e in metadata]
    assert pids == sorted(pids) and len(set(pids)) == len(pids)
    # Every slice's pid belongs to its region's block.
    by_name = dict(zip(names, pids))
    for event in events:
        if event["ph"] == "b" and event["cat"] == "request":
            assert event["pid"] in by_name.values()


def test_export_federation_trace_round_trips(tmp_path):
    path = export_federation_trace(
        str(tmp_path / "fed-trace.json"),
        {"eu": [_trace(node="eu-0")], "us": [_trace(request_id=2, node="us-0")]},
    )
    events = read_trace_events(path)
    regions = {
        e["args"]["name"].split("/")[0] for e in events if e["ph"] == "M"
    }
    assert regions == {"eu", "us"}

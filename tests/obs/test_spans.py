"""Tests for request-lifecycle spans, the trace log, and the waterfall."""

import pytest

from repro.obs.spans import (
    RequestTrace,
    SpanError,
    TraceLog,
)
from repro.obs.streaming import StreamingTrafficStats
from repro.traffic.slo import RequestOutcome, RequestRecord


def make_record(
    request_id=1,
    outcome=RequestOutcome.COMPLETED,
    arrival_s=0.0,
    dispatch_s=1.0,
    completion_s=3.0,
    cold_start_wait_s=0.25,
    request_class="standard",
):
    return RequestRecord(
        request_id=request_id,
        function="predict",
        outcome=outcome,
        arrival_s=arrival_s,
        dispatch_s=dispatch_s,
        completion_s=completion_s,
        replica="replica-1",
        cold_start_wait_s=cold_start_wait_s,
        request_class=request_class,
    )


def test_stage_decomposition_sums_to_total():
    trace = RequestTrace.from_record("tenant-1", make_record(), node="node-0")
    assert trace.completed
    assert trace.queue_s == pytest.approx(0.75)  # 1.0 wait minus 0.25 cold
    assert trace.cold_start_s == pytest.approx(0.25)
    assert trace.service_s == pytest.approx(2.0)
    assert trace.queue_s + trace.cold_start_s + trace.service_s == pytest.approx(
        trace.total_s
    )
    assert trace.node == "node-0"


def test_stages_are_in_lifecycle_order_and_contiguous():
    trace = RequestTrace.from_record("tenant-1", make_record())
    stages = trace.stages()
    assert [name for name, _, _ in stages] == ["queue", "cold_start", "service"]
    for (_, start, duration), (_, next_start, _) in zip(stages, stages[1:]):
        assert start + duration == pytest.approx(next_start)
    assert stages[0][1] == trace.arrival_s
    last_name, last_start, last_duration = stages[-1]
    assert last_start + last_duration == pytest.approx(trace.end_s)


def test_zero_duration_stages_are_kept():
    record = make_record(dispatch_s=0.0, completion_s=2.0, cold_start_wait_s=0.0)
    stages = RequestTrace.from_record("tenant-1", record).stages()
    assert stages[0] == ("queue", 0.0, 0.0)
    assert stages[1] == ("cold_start", 0.0, 0.0)
    assert stages[2] == ("service", 0.0, 2.0)


def test_undispatched_request_is_a_single_queue_slice():
    record = make_record(
        outcome=RequestOutcome.DROPPED, dispatch_s=None, completion_s=None,
        cold_start_wait_s=0.0,
    )
    trace = RequestTrace.from_record("tenant-1", record)
    assert not trace.completed
    assert trace.service_s == 0.0
    assert trace.stages() == [("queue", 0.0, 0.0)]


def test_trace_rejects_time_travel():
    with pytest.raises(SpanError):
        RequestTrace(
            tenant="t", request_id=1, request_class="standard",
            outcome="completed", arrival_s=5.0, end_s=4.0,
        )


def test_trace_log_keeps_every_trace_in_order():
    log = TraceLog()
    for i in range(5):
        log.record(
            RequestTrace(
                tenant="t", request_id=i, request_class="standard",
                outcome="completed", arrival_s=0.0, end_s=1.0,
            )
        )
    assert len(log) == 5
    assert [t.request_id for t in log.traces] == [0, 1, 2, 3, 4]


def test_waterfall_rows_per_class_with_rollup():
    records = [
        make_record(request_id=1, request_class="interactive", completion_s=2.0),
        make_record(request_id=2, request_class="batch", completion_s=5.0),
        make_record(request_id=3, request_class="batch", completion_s=4.0),
        make_record(request_id=4, outcome=RequestOutcome.DROPPED,
                    dispatch_s=None, completion_s=None, cold_start_wait_s=0.0),
    ]
    rows = StreamingTrafficStats.of_records(records).waterfall("tenant-1")
    assert [(r.request_class, r.completed) for r in rows] == [
        ("batch", 2),
        ("interactive", 1),
        ("(all)", 3),
    ]
    batch = rows[0]
    assert batch.label == "tenant-1"
    assert batch.service_mean_s == pytest.approx(3.5)  # (4 + 3) / 2
    assert batch.queue_mean_s == pytest.approx(0.75)
    assert batch.cold_mean_s == pytest.approx(0.25)
    assert batch.total_mean_s == pytest.approx(
        batch.queue_mean_s + batch.cold_mean_s + batch.service_mean_s
    )


def test_waterfall_single_class_has_no_rollup_row():
    rows = StreamingTrafficStats.of_records([make_record()]).waterfall("m")
    assert len(rows) == 1
    assert rows[0].request_class == "standard"


def test_waterfall_empty_records():
    assert StreamingTrafficStats.of_records([]).waterfall("m") == []

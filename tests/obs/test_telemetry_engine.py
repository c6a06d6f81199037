"""Integration tests: the telemetry layer threaded through the traffic engine."""

import io

import pytest

from repro.obs import (
    JsonlEventWriter,
    ProgressReporter,
    StreamingTrafficStats,
    Telemetry,
    TraceLog,
)
from repro.obs.streaming import Rollups
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.autoscaler import Autoscaler, TargetConcurrencyPolicy
from repro.traffic.engine import TrafficConfig, TrafficEngine
from repro.traffic.slo import RequestOutcome


def _fold(stream, record):
    """Fold one record into a sketch-mode accumulator, from its scalars, as the runtime does."""
    Rollups((stream,)).fold(
        record.outcome,
        record.arrival_s,
        record.dispatch_s,
        record.completion_s,
        record.cold_start_wait_s,
        record.request_class,
        record.deadline_s,
    )


def make_autoscaler():
    return Autoscaler(
        TargetConcurrencyPolicy(target_concurrency=1.0),
        min_replicas=1,
        max_replicas=8,
        keep_alive_s=5.0,
        control_interval_s=1.0,
    )


def run_engine(telemetry=None, retain_records=True, mode="roadrunner-user"):
    requests = PoissonArrivals(rate_rps=40, duration_s=15, seed=11).generate()
    engine = TrafficEngine(
        mode,
        autoscaler=make_autoscaler(),
        config=TrafficConfig(retain_records=retain_records),
        telemetry=telemetry,
    )
    summary = engine.run(requests, pattern="poisson")
    return engine, summary, requests


def test_telemetry_does_not_change_results():
    _, baseline, _ = run_engine(telemetry=None)
    _, instrumented, _ = run_engine(telemetry=Telemetry(trace_log=TraceLog()))
    assert instrumented == baseline


def test_request_counters_match_summary():
    telemetry = Telemetry()
    _, summary, _ = run_engine(telemetry=telemetry)
    registry = telemetry.registry
    assert (
        registry.value("repro_requests_total", tenant="tenant-1", outcome="completed")
        == summary.completed
    )
    latency = registry.get("repro_request_latency_seconds").labels(tenant="tenant-1")
    assert latency.count == summary.completed
    # Stage summaries cover every completed request once per stage.
    for stage in ("queue", "cold_start", "service"):
        child = registry.get("repro_request_stage_seconds").labels(
            tenant="tenant-1", stage=stage
        )
        assert child.count == summary.completed
    assert registry.value("repro_cold_starts_total", tenant="tenant-1") == summary.cold_starts
    assert registry.value(
        "repro_cold_start_seconds_total", tenant="tenant-1"
    ) == pytest.approx(summary.cold_start_seconds)


def test_trace_log_captures_every_request_with_consistent_stages():
    telemetry = Telemetry(trace_log=TraceLog())
    engine, summary, requests = run_engine(telemetry=telemetry)
    traces = telemetry.trace_log.traces
    assert len(traces) == len(requests)
    completed = [t for t in traces if t.completed]
    assert len(completed) == summary.completed
    for trace in completed:
        assert trace.node  # completion is observed at the join stage, node known
        assert trace.queue_s + trace.cold_start_s + trace.service_s == pytest.approx(
            trace.total_s
        )
    # Traces agree with the retained records one-to-one.
    by_id = {r.request_id: r for r in engine.records}
    for trace in completed:
        record = by_id[trace.request_id]
        assert trace.total_s == pytest.approx(record.latency_s)
        assert trace.service_s == pytest.approx(record.service_s)


def test_event_stream_brackets_the_run():
    buffer = io.StringIO()
    telemetry = Telemetry(events=JsonlEventWriter(buffer))
    _, summary, requests = run_engine(telemetry=telemetry)
    import json

    events = [json.loads(line) for line in buffer.getvalue().splitlines()]
    kinds = [event["event"] for event in events]
    assert kinds[0] == "run_start"
    assert kinds[-1] == "run_end"
    request_events = [e for e in events if e["event"] == "request"]
    assert len(request_events) == len(requests)
    completed_events = [e for e in request_events if e["outcome"] == "completed"]
    assert len(completed_events) == summary.completed
    for event in completed_events:
        assert event["latency_s"] == pytest.approx(
            event["queue_s"] + event["cold_start_s"] + event["service_s"], abs=1e-5
        )
    assert any(e["event"] == "scale" for e in events)


def test_progress_heartbeat_fires_through_engine_hooks():
    stream = io.StringIO()
    telemetry = Telemetry(
        progress=ProgressReporter(interval_s=5.0, stream=stream)
    )
    run_engine(telemetry=telemetry)
    lines = stream.getvalue().splitlines()
    assert len(lines) >= 2  # at least one heartbeat plus the closing line
    assert lines[-1].startswith("[progress] done:")
    assert all(line.startswith("[progress]") for line in lines)


def test_engine_produces_waterfall_rows():
    engine, summary, _ = run_engine()
    assert engine.waterfall
    row = engine.waterfall[0]
    assert row.completed == summary.completed
    assert row.total_mean_s == pytest.approx(summary.latency.mean_s)
    assert row.total_mean_s == pytest.approx(
        row.queue_mean_s + row.cold_mean_s + row.service_mean_s
    )


def test_sketch_mode_retains_no_records_but_matches_exact_counts():
    exact_engine, exact, _ = run_engine(retain_records=True)
    sketch_engine, sketch, _ = run_engine(retain_records=False)
    assert sketch_engine.records == []
    assert exact_engine.records
    # Count-like fields are identical; percentile fields are sketch estimates.
    for field in ("offered", "completed", "timed_out", "dropped", "shed",
                  "cold_starts", "max_replicas", "duration_s"):
        assert getattr(sketch, field) == getattr(exact, field)
    assert sketch.latency.count == exact.latency.count
    assert sketch.latency.mean_s == pytest.approx(exact.latency.mean_s)
    assert sketch.latency.max_s == pytest.approx(exact.latency.max_s)
    assert sketch.latency.p50_s == pytest.approx(exact.latency.p50_s, rel=0.05)
    assert sketch.replica_timeline == exact.replica_timeline
    assert sketch.classes == exact.classes or len(sketch.classes) == len(exact.classes)
    # Sketch mode still produces a waterfall.
    assert sketch_engine.waterfall
    assert sketch_engine.waterfall[0].completed == exact_engine.waterfall[0].completed


def test_streaming_stats_mirror_exact_summary():
    engine, exact, _ = run_engine(retain_records=True)
    stream = StreamingTrafficStats()
    for record in engine.records:
        _fold(stream, record)
    summary = stream.summary(
        mode=exact.mode,
        pattern=exact.pattern,
        duration_s=exact.duration_s,
        cold_starts=exact.cold_starts,
        cold_start_seconds=exact.cold_start_seconds,
        replica_timeline=exact.replica_timeline,
    )
    assert summary.offered == exact.offered
    assert summary.completed == exact.completed
    assert summary.latency.count == exact.latency.count
    assert summary.latency.mean_s == pytest.approx(exact.latency.mean_s)
    assert summary.queueing.mean_s == pytest.approx(exact.queueing.mean_s)
    assert summary.service.mean_s == pytest.approx(exact.service.mean_s)


def test_sketch_mode_with_sim_backend():
    engine, summary, requests = run_engine(retain_records=False, mode="runc-http")
    assert summary.offered == len(requests)
    assert engine.records == []
    assert summary.latency.count == summary.completed


def test_telemetry_counts_non_completed_outcomes():
    requests = PoissonArrivals(
        rate_rps=100, duration_s=10, payload_mb=64.0, seed=5
    ).generate()
    telemetry = Telemetry()
    engine = TrafficEngine(
        "roadrunner-user",
        autoscaler=Autoscaler(
            TargetConcurrencyPolicy(1.0), min_replicas=1, max_replicas=1
        ),
        config=TrafficConfig(max_queue=5, queue_timeout_s=2.0),
        telemetry=telemetry,
    )
    summary = engine.run(requests)
    registry = telemetry.registry
    for outcome, expected in (
        (RequestOutcome.DROPPED, summary.dropped),
        (RequestOutcome.TIMED_OUT, summary.timed_out),
        (RequestOutcome.COMPLETED, summary.completed),
    ):
        if expected:
            assert registry.value(
                "repro_requests_total", tenant="tenant-1", outcome=outcome.value
            ) == expected
    assert summary.dropped > 0 or summary.timed_out > 0

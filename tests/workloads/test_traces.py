"""Tests for trace generation and trace-driven replay."""

import pytest

from repro.workloads.traces import (
    Invocation,
    InvocationTrace,
    TraceError,
    bursty_trace,
    compare_modes_on_trace,
    mixed_size_trace,
    replay_trace,
)


def test_invocation_and_trace_validation():
    with pytest.raises(TraceError):
        Invocation(arrival_s=-1, payload_bytes=10)
    with pytest.raises(TraceError):
        Invocation(arrival_s=0, payload_bytes=0)
    with pytest.raises(TraceError):
        InvocationTrace(name="t", invocations=())
    with pytest.raises(TraceError):
        InvocationTrace(
            name="t",
            invocations=(Invocation(1.0, 10), Invocation(0.5, 10)),  # out of order
        )


def test_bursty_trace_shape():
    trace = bursty_trace(bursts=3, burst_size=4)
    assert len(trace) == 12
    arrivals = [inv.arrival_s for inv in trace.invocations]
    # The gap between bursts is much larger than within a burst.
    assert arrivals[4] - arrivals[3] > 10 * (arrivals[1] - arrivals[0])


def test_mixed_size_trace_uses_the_declared_sizes():
    trace = mixed_size_trace(count=50, seed=1)
    sizes = {inv.payload_bytes for inv in trace.invocations}
    allowed = {int(s * 1024 * 1024) for s in (1, 10, 60, 100)}
    assert sizes <= allowed
    assert len(trace) == 50
    with pytest.raises(TraceError):
        mixed_size_trace(count=0)


def test_replay_reports_distribution_and_resources():
    trace = mixed_size_trace(count=30, seed=2)
    result = replay_trace(trace, "roadrunner-user")
    assert result.invocations == 30
    assert 0 < result.mean_latency_s <= result.p95_latency_s <= result.max_latency_s
    assert result.total_cpu_s > 0
    assert 0 < result.busy_fraction <= 1.0
    assert "roadrunner-user" in result.summary()


def test_roadrunner_beats_wasmedge_on_the_same_trace():
    trace = bursty_trace(bursts=2, burst_size=5, payload_mb=10)
    results = compare_modes_on_trace(trace, ["roadrunner-user", "wasmedge-http"])
    assert results["roadrunner-user"].mean_latency_s < results["wasmedge-http"].mean_latency_s
    assert results["roadrunner-user"].p95_latency_s < results["wasmedge-http"].p95_latency_s
    assert results["roadrunner-user"].total_cpu_s < results["wasmedge-http"].total_cpu_s

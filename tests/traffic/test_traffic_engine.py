"""Tests for the discrete-event traffic engine."""

import pytest

from repro.traffic.arrivals import PoissonArrivals, BurstyArrivals, Request
from repro.traffic.autoscaler import (
    Autoscaler,
    NoScalingPolicy,
    StepScalingPolicy,
    TargetConcurrencyPolicy,
)
from repro.traffic.engine import TrafficConfig, TrafficEngine, TrafficEngineError, run_comparison
from repro.traffic.slo import RequestOutcome

MB = 1024 * 1024


def _burst(count, arrival_s=0.0, payload_bytes=MB):
    return [
        Request(request_id=i, arrival_s=arrival_s, function="app", payload_bytes=payload_bytes)
        for i in range(count)
    ]


def test_engine_completes_all_requests_and_separates_delays():
    requests = PoissonArrivals(rate_rps=20, duration_s=10, seed=0).generate()
    engine = TrafficEngine("roadrunner-user")
    summary = engine.run(requests, pattern="poisson")
    assert summary.offered == len(requests)
    assert summary.completed == len(requests)
    assert summary.timed_out == 0 and summary.dropped == 0
    assert summary.goodput_rps > 0
    for record in engine.records:
        assert record.outcome is RequestOutcome.COMPLETED
        assert record.latency_s == pytest.approx(record.queueing_delay_s + record.service_s)
        assert record.service_s > 0


def test_burst_on_one_replica_queues_fifo():
    engine = TrafficEngine(
        "roadrunner-user",
        autoscaler=Autoscaler(NoScalingPolicy(), min_replicas=1, max_replicas=1),
        config=TrafficConfig(initial_replicas=1),
    )
    summary = engine.run(_burst(10))
    assert summary.completed == 10
    # One replica serves the burst serially: queueing delay grows monotonically
    # in arrival order (the first request still waits for the initial
    # replica's cold start) while service time stays constant.
    delays = [record.queueing_delay_s for record in engine.records]
    assert delays == sorted(delays)
    assert delays[-1] > delays[0] > 0.0
    services = {record.service_s for record in engine.records}
    assert len(services) == 1


def test_scale_from_zero_pays_cold_start_before_serving():
    engine = TrafficEngine(
        "roadrunner-user",
        autoscaler=Autoscaler(TargetConcurrencyPolicy(1.0), min_replicas=0, max_replicas=4),
        config=TrafficConfig(initial_replicas=0),
    )
    summary = engine.run(_burst(5))
    assert summary.completed == 5
    assert summary.cold_starts >= 1
    assert summary.cold_start_seconds > 0
    # Nothing could be served before the first control tick plus cold start.
    assert all(record.queueing_delay_s > 0 for record in engine.records)


def test_queue_overflow_drops_requests():
    engine = TrafficEngine(
        "roadrunner-user",
        autoscaler=Autoscaler(NoScalingPolicy(), min_replicas=1, max_replicas=1),
        config=TrafficConfig(initial_replicas=1, max_queue=5),
    )
    summary = engine.run(_burst(20))
    # The initial replica is still cold-starting at t=0, so only the 5 queue
    # slots admit requests; the other 15 are rejected at the gateway.
    assert summary.dropped == 15
    assert summary.completed == 5
    assert summary.offered == 20


def test_queue_timeout_expires_waiting_requests():
    engine = TrafficEngine(
        "roadrunner-user",
        autoscaler=Autoscaler(NoScalingPolicy(), min_replicas=1, max_replicas=1),
        config=TrafficConfig(initial_replicas=1, queue_timeout_s=0.01),
    )
    summary = engine.run(_burst(100))
    assert summary.timed_out > 0
    assert summary.completed + summary.timed_out == 100
    # Timed-out requests never reached a replica.
    expired = [r for r in engine.records if r.outcome is RequestOutcome.TIMED_OUT]
    assert all(r.dispatch_s is None for r in expired)


def test_autoscaler_scales_down_after_burst():
    requests = BurstyArrivals(
        on_rate_rps=60, duration_s=40, on_s=5.0, off_s=15.0, payload_mb=1.0, seed=2
    ).generate()
    engine = TrafficEngine(
        "runc-http",
        autoscaler=Autoscaler(
            TargetConcurrencyPolicy(1.0), min_replicas=1, max_replicas=32, keep_alive_s=2.0
        ),
    )
    summary = engine.run(requests, pattern="bursty")
    assert summary.max_replicas > 1
    counts = [count for _, count in summary.replica_timeline]
    peak = max(counts)
    assert min(counts[counts.index(peak):]) < peak  # pool shrank after the peak
    assert summary.completed == summary.offered


def test_same_stream_same_summary():
    requests = PoissonArrivals(rate_rps=30, duration_s=10, seed=8).generate()
    results = [TrafficEngine("roadrunner-user").run(requests, pattern="poisson") for _ in range(2)]
    assert results[0] == results[1]


def test_consecutive_runs_on_one_engine_give_the_same_summary():
    # A step policy keeps a cooldown between decisions; each run must scale
    # with a fresh copy of it, not with the state the previous run left.
    requests = BurstyArrivals(
        on_rate_rps=200, duration_s=20, on_s=5, off_s=5, payload_mb=4.0, seed=1
    ).generate()
    engine = TrafficEngine(
        "wasmedge-http",
        autoscaler=Autoscaler(StepScalingPolicy(), max_replicas=16),
        config=TrafficConfig(nodes=2, retain_records=False),
    )
    first = engine.run(requests, pattern="bursty")
    second = engine.run(requests, pattern="bursty")
    assert first.cold_starts > 0
    assert second == first


def test_run_comparison_shares_the_stream_across_modes():
    requests = PoissonArrivals(rate_rps=10, duration_s=5, seed=1).generate()
    results = run_comparison(requests, modes=("roadrunner-user", "runc-http"))
    assert set(results) == {"roadrunner-user", "runc-http"}
    assert results["roadrunner-user"].offered == results["runc-http"].offered == len(requests)


def test_engine_rejects_bad_inputs():
    with pytest.raises(TrafficEngineError):
        TrafficEngine("no-such-mode")
    with pytest.raises(TrafficEngineError):
        TrafficEngine("roadrunner-user").run([])
    mixed = _burst(2) + [Request(request_id=9, arrival_s=0.0, function="other", payload_bytes=MB)]
    with pytest.raises(TrafficEngineError):
        TrafficEngine("roadrunner-user").run(mixed)
    with pytest.raises(TrafficEngineError):
        TrafficConfig(nodes=0)
    with pytest.raises(TrafficEngineError):
        TrafficConfig(queue_timeout_s=0)

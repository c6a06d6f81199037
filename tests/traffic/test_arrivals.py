"""Tests for the arrival processes: determinism, ordering, shape."""

import pytest

from repro.traffic.arrivals import (
    ArrivalError,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    TraceArrivals,
    make_arrivals,
)
from repro.workloads.traces import mixed_size_trace


def test_poisson_is_seeded_and_deterministic():
    a = PoissonArrivals(rate_rps=20, duration_s=30, seed=1).generate()
    b = PoissonArrivals(rate_rps=20, duration_s=30, seed=1).generate()
    c = PoissonArrivals(rate_rps=20, duration_s=30, seed=2).generate()
    assert a == b
    assert a != c


def test_poisson_rate_roughly_matches():
    requests = PoissonArrivals(rate_rps=50, duration_s=100, seed=0).generate()
    assert 0.8 * 5000 < len(requests) < 1.2 * 5000
    assert all(r.arrival_s <= 100 for r in requests)


def test_requests_are_ordered_and_numbered():
    requests = PoissonArrivals(rate_rps=10, duration_s=20, seed=3).generate()
    arrivals = [r.arrival_s for r in requests]
    assert arrivals == sorted(arrivals)
    assert [r.request_id for r in requests] == list(range(len(requests)))


def test_bursty_respects_off_windows():
    requests = BurstyArrivals(
        on_rate_rps=50, duration_s=40, on_s=5.0, off_s=15.0, seed=0
    ).generate()
    # Windows: [0,5) on, [5,20) off, [20,25) on, [25,40) off.
    assert requests
    for request in requests:
        in_first = request.arrival_s <= 5.0
        in_second = 20.0 <= request.arrival_s <= 25.0
        assert in_first or in_second


def test_diurnal_rate_swings_between_trough_and_peak():
    arrivals = DiurnalArrivals(peak_rps=100, trough_rps=10, duration_s=120, period_s=60)
    assert arrivals.rate_at(0.0) == pytest.approx(10.0)
    assert arrivals.rate_at(30.0) == pytest.approx(100.0)
    assert arrivals.rate_at(60.0) == pytest.approx(10.0)
    requests = arrivals.generate()
    # More arrivals in the peak half-cycle than the trough half-cycle.
    peak_half = [r for r in requests if 15.0 <= r.arrival_s % 60.0 < 45.0]
    trough_half = [r for r in requests if not 15.0 <= r.arrival_s % 60.0 < 45.0]
    assert len(peak_half) > 2 * len(trough_half)


def test_trace_arrivals_replay_invocation_traces():
    trace = mixed_size_trace(count=20, seed=4)
    requests = TraceArrivals(trace, function="app").generate()
    assert len(requests) == 20
    assert [r.arrival_s for r in requests] == [i.arrival_s for i in trace.invocations]
    assert [r.payload_bytes for r in requests] == [i.payload_bytes for i in trace.invocations]


def test_invalid_parameters_raise():
    with pytest.raises(ArrivalError):
        PoissonArrivals(rate_rps=0, duration_s=10)
    with pytest.raises(ArrivalError):
        PoissonArrivals(rate_rps=10, duration_s=10, payload_mb=0)
    with pytest.raises(ArrivalError):
        BurstyArrivals(on_rate_rps=10, duration_s=10, on_s=0)
    with pytest.raises(ArrivalError):
        DiurnalArrivals(peak_rps=10, trough_rps=20, duration_s=10)


def test_make_arrivals_builds_each_pattern_with_its_defaults():
    bursty = make_arrivals("bursty", 30.0, 40.0, seed=2)
    assert bursty.arrival_times() == BurstyArrivals(
        on_rate_rps=30.0, duration_s=40.0, on_s=5.0, off_s=15.0, seed=2
    ).arrival_times()
    diurnal = make_arrivals("diurnal", 0.5, 10.0)
    assert (diurnal.peak_rps, diurnal.trough_rps, diurnal.period_s) == (0.5, 0.1, 60.0)
    assert make_arrivals("diurnal", 50.0, 10.0).trough_rps == 5.0
    assert make_arrivals("poisson", 4.0, 10.0, function="f").function == "f"
    with pytest.raises(ArrivalError, match="unknown pattern 'spiky'"):
        make_arrivals("spiky", 4.0, 10.0)

"""Tests for the shared percentile helpers and latency summaries."""

import pytest

from repro.metrics.stats import LatencySummary, StatsError, mean, p50, p95, p99, percentile


def test_percentile_known_values():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0


def test_percentile_interpolates_between_ranks():
    assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)
    assert percentile([0.0, 10.0], 95) == pytest.approx(9.5)


def test_percentile_is_order_independent():
    shuffled = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(shuffled, 50) == 3.0


def test_percentile_single_sample():
    assert p50([7.0]) == p95([7.0]) == p99([7.0]) == 7.0


def test_percentiles_are_monotone_in_q():
    values = [float(v) for v in range(100)]
    assert p50(values) <= p95(values) <= p99(values) <= max(values)


def test_mean_and_errors():
    assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
    with pytest.raises(StatsError):
        mean([])
    with pytest.raises(StatsError):
        percentile([], 50)
    with pytest.raises(StatsError):
        percentile([1.0], 101)


def test_latency_summary_from_samples():
    summary = LatencySummary.from_samples([1.0, 2.0, 3.0, 4.0])
    assert summary.count == 4
    assert summary.mean_s == pytest.approx(2.5)
    assert summary.p50_s == pytest.approx(2.5)
    assert summary.max_s == 4.0


def test_latency_summary_empty():
    empty = LatencySummary.empty()
    assert empty.count == 0
    assert empty.p99_s == 0.0
    with pytest.raises(StatsError):
        LatencySummary.from_samples([])

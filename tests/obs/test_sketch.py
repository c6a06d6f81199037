"""Tests for the streaming quantile sketch and its log histogram."""

import random

import pytest

from repro.metrics.stats import percentile
from repro.obs.sketch import LogHistogram, QuantileSketch, SketchError


def test_empty_sketch_reads_zero():
    sketch = QuantileSketch()
    assert sketch.count == 0
    assert sketch.mean == 0.0
    assert sketch.summary().count == 0


@pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
def test_uniform_distribution_within_one_percent(q):
    rng = random.Random(42)
    values = [rng.uniform(0.0, 1.0) for _ in range(100_000)]
    sketch = QuantileSketch()
    for value in values:
        sketch.observe(value)
    exact = percentile(values, q * 100.0)
    assert sketch.quantile(q) == pytest.approx(exact, rel=0.01)


@pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
def test_exponential_distribution_within_one_percent(q):
    rng = random.Random(7)
    values = [rng.expovariate(10.0) for _ in range(100_000)]
    sketch = QuantileSketch()
    for value in values:
        sketch.observe(value)
    exact = percentile(values, q * 100.0)
    assert sketch.quantile(q) == pytest.approx(exact, rel=0.01)


def test_sketch_tracks_exact_scalars():
    sketch = QuantileSketch()
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    for value in values:
        sketch.observe(value)
    assert sketch.count == len(values)
    assert sketch.sum == pytest.approx(sum(values))
    assert sketch.mean == pytest.approx(sum(values) / len(values))
    assert sketch.max == 9.0
    assert sketch.min == 1.0


def test_sketch_summary_matches_latency_summary_shape():
    rng = random.Random(3)
    values = [rng.lognormvariate(0.0, 0.5) for _ in range(10_000)]
    sketch = QuantileSketch()
    for value in values:
        sketch.observe(value)
    summary = sketch.summary()
    assert summary.count == 10_000
    assert summary.p50_s == pytest.approx(percentile(values, 50.0), rel=0.02)
    assert summary.p99_s == pytest.approx(percentile(values, 99.0), rel=0.02)
    assert summary.max_s == max(values)
    # Percentiles stay ordered.
    assert summary.p50_s <= summary.p95_s <= summary.p99_s <= summary.max_s


def test_any_quantile_in_range_is_answerable():
    sketch = QuantileSketch()
    rng = random.Random(1)
    values = [rng.uniform(0.0, 1.0) for _ in range(10_000)]
    for value in values:
        sketch.observe(value)
    assert sketch.quantile(0.25) == pytest.approx(percentile(values, 25.0), rel=0.02)
    with pytest.raises(SketchError):
        sketch.quantile(0.0)
    with pytest.raises(SketchError):
        sketch.quantile(1.5)


def test_histogram_is_insensitive_to_sample_order():
    # An unrepresentative prefix (a cold-start transient) must not poison
    # the estimate: the same multiset in sorted, reversed, and
    # transient-first order answers identically, and within 1% of exact.
    rng = random.Random(19)
    transient = [0.06 + rng.uniform(0.0, 0.01) for _ in range(500)]
    steady = [rng.expovariate(400.0) + 0.0005 for _ in range(99_500)]
    orderings = [
        transient + steady,
        sorted(transient + steady),
        list(reversed(sorted(transient + steady))),
    ]
    exact = {q: percentile(orderings[0], q * 100.0) for q in (0.5, 0.95, 0.99)}
    answers = []
    for values in orderings:
        sketch = QuantileSketch()
        for value in values:
            sketch.observe(value)
        answers.append(sketch.quantiles())
    assert answers[0] == answers[1] == answers[2]
    for q, estimate in answers[0].items():
        assert estimate == pytest.approx(exact[q], rel=0.01)


def test_histogram_bounds_answers_by_running_extremes():
    histogram = LogHistogram()
    histogram.add(5.0)
    histogram.add(7.0)
    assert histogram.quantile(0.01) >= 5.0
    assert histogram.quantile(0.99) <= 7.0
    with pytest.raises(SketchError):
        histogram.quantile(1.0)
    assert LogHistogram().quantile(0.5) == 0.0

"""Tests for the metrics registry and the Prometheus exposition."""

import math

import pytest

from repro.obs.exporters import parse_prometheus, render_prometheus, write_prometheus
from repro.obs.registry import MetricsError, MetricsRegistry


def test_counter_gauge_summary_round_trip():
    registry = MetricsRegistry()
    requests = registry.counter("requests_total", labels=("tenant",))
    requests.labels(tenant="a").inc()
    requests.labels(tenant="a").inc(2)
    requests.labels(tenant="b").inc()
    replicas = registry.gauge("replicas")
    replicas.child().set(4)
    replicas.child().dec()
    latency = registry.summary("latency_seconds", labels=("tenant",))
    for value in (0.1, 0.2, 0.3):
        latency.labels(tenant="a").observe(value)

    assert registry.value("requests_total", tenant="a") == 3
    assert registry.value("requests_total", tenant="b") == 1
    assert registry.value("replicas") == 3
    assert latency.labels(tenant="a").count == 3
    assert latency.labels(tenant="a").sum == pytest.approx(0.6)


def test_counters_only_go_up():
    registry = MetricsRegistry()
    with pytest.raises(MetricsError):
        registry.counter("c").child().inc(-1)


def test_kind_and_label_mismatches_are_errors():
    registry = MetricsRegistry()
    registry.counter("requests_total", labels=("tenant",))
    with pytest.raises(MetricsError):
        registry.gauge("requests_total", labels=("tenant",))
    with pytest.raises(MetricsError):
        registry.counter("requests_total", labels=("node",))
    with pytest.raises(MetricsError):
        registry.counter("requests_total", labels=("tenant",)).labels(node="x")
    with pytest.raises(MetricsError):
        registry.counter("bad name")


def test_prometheus_exposition_format(tmp_path):
    registry = MetricsRegistry()
    requests = registry.counter("requests_total", help="Requests.", labels=("tenant",))
    requests.labels(tenant="a").inc(5)
    latency = registry.summary("latency_seconds", labels=("tenant",))
    latency.labels(tenant="a").observe(0.25)

    text = render_prometheus(registry)
    assert "# HELP requests_total Requests." in text
    assert "# TYPE requests_total counter" in text
    assert 'requests_total{tenant="a"} 5' in text
    assert "# TYPE latency_seconds summary" in text
    assert 'latency_seconds{tenant="a",quantile="0.5"} 0.25' in text
    assert 'latency_seconds_count{tenant="a"} 1' in text

    path = write_prometheus(registry, str(tmp_path / "metrics.prom"))
    with open(path, "r", encoding="utf-8") as handle:
        assert handle.read() == text

    parsed = parse_prometheus(text)
    assert parsed["requests_total"]['{tenant="a"}'] == 5.0
    assert parsed["latency_seconds_sum"]['{tenant="a"}'] == 0.25


def test_non_finite_values_render_and_round_trip():
    registry = MetricsRegistry()
    gauge = registry.gauge("g", labels=("v",))
    gauge.labels(v="pos").set(float("inf"))
    gauge.labels(v="neg").set(float("-inf"))
    gauge.labels(v="nan").set(float("nan"))
    overflow = registry.summary("s").child()
    overflow.observe(1e308)
    overflow.observe(1e308)  # the sum overflows to +Inf

    text = render_prometheus(registry)
    assert 'g{v="pos"} +Inf' in text
    assert 'g{v="neg"} -Inf' in text
    assert 'g{v="nan"} NaN' in text
    assert "s_sum +Inf" in text

    parsed = parse_prometheus(text)
    assert parsed["g"]['{v="pos"}'] == math.inf
    assert parsed["g"]['{v="neg"}'] == -math.inf
    assert math.isnan(parsed["g"]['{v="nan"}'])
    assert parsed["s_sum"][""] == math.inf


def test_exposition_is_deterministic_registration_order():
    def build() -> str:
        registry = MetricsRegistry()
        registry.counter("b_total").child().inc()
        registry.counter("a_total").child().inc()
        registry.gauge("depth", labels=("tenant",)).labels(tenant="z").set(1)
        registry.gauge("depth", labels=("tenant",)).labels(tenant="a").set(2)
        return render_prometheus(registry)

    text = build()
    assert text == build()
    # Registration order, not alphabetical: b_total renders before a_total,
    # tenant z before tenant a.
    assert text.index("b_total") < text.index("a_total")
    assert text.index('tenant="z"') < text.index('tenant="a"')


def test_label_values_are_escaped():
    registry = MetricsRegistry()
    registry.counter("c", labels=("name",)).labels(name='we"ird\\').inc()
    text = render_prometheus(registry)
    assert r'c{name="we\"ird\\"} 1' in text

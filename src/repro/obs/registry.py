"""A streaming metrics registry: counters, gauges and sketch-backed summaries.

The registry is the engine-owned (never process-global) home for everything
an operator would scrape during a run: request counters by outcome, replica
and queue-depth gauges, and latency summaries whose percentiles come from
:class:`~repro.obs.sketch.QuantileSketch` — so a million-request run costs
the same registry memory as a hundred-request one.

The model follows the Prometheus client conventions without importing
anything: a *family* owns a metric name, help text and label names; each
distinct label-value combination materialises one *child* holding the actual
state.  ``registry.counter("repro_requests_total", labels=("tenant",
"outcome")).labels(tenant="a", outcome="completed").inc()`` is the whole
API.  Children are created lazily and iterate in creation order, so a seeded
run always renders byte-identical exposition text.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.sketch import QuantileSketch


class MetricsError(ValueError):
    """Raised for malformed metric names, labels or kind mismatches."""


class Counter:
    """A monotonically increasing count (requests served, cold starts paid)."""

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError("counters only go up; use a gauge for %r" % amount)
        self.value += amount


class Gauge:
    """A value that goes both ways (replica count, queue depth)."""

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Summary:
    """A streaming distribution (Prometheus summary type, sketch quantiles)."""

    def __init__(self) -> None:
        self.sketch = QuantileSketch()

    def observe(self, value: float) -> None:
        self.sketch.observe(value)

    @property
    def count(self) -> int:
        return self.sketch.count

    @property
    def sum(self) -> float:
        return self.sketch.sum


_KINDS = {"counter": Counter, "gauge": Gauge, "summary": Summary}


class MetricFamily:
    """One metric name with its labelled children."""

    def __init__(self, name: str, kind: str, help: str = "", labels: Sequence[str] = ()) -> None:
        if kind not in _KINDS:
            raise MetricsError("unknown metric kind %r" % kind)
        if not name or not name.replace("_", "a").replace(":", "a").isalnum():
            raise MetricsError("invalid metric name %r" % name)
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(labels)
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **label_values: str):
        """The child for one label-value combination (created on first use)."""
        if set(label_values) != set(self.label_names):
            raise MetricsError(
                "metric %r takes labels %s, got %s"
                % (self.name, list(self.label_names), sorted(label_values))
            )
        key = tuple(str(label_values[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = _KINDS[self.kind]()
            self._children[key] = child
        return child

    def child(self):
        """The single unlabelled child (for families declared without labels)."""
        if self.label_names:
            raise MetricsError("metric %r requires labels %s" % (self.name, list(self.label_names)))
        return self.labels()

    def children(self) -> Iterator[Tuple[Tuple[str, ...], object]]:
        """(label values, child) pairs in creation order."""
        return iter(self._children.items())

    def __len__(self) -> int:
        return len(self._children)


class MetricsRegistry:
    """A collection of metric families, rendered by the exporters.

    Families register on first request and are returned on every later one
    (kind and label names must agree — the same name cannot silently be a
    counter in one module and a gauge in another).
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _family(self, name: str, kind: str, help: str, labels: Sequence[str]) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise MetricsError(
                    "metric %r is a %s, requested as %s" % (name, existing.kind, kind)
                )
            if existing.label_names != tuple(labels):
                raise MetricsError(
                    "metric %r has labels %s, requested with %s"
                    % (name, list(existing.label_names), list(labels))
                )
            return existing
        family = MetricFamily(name, kind, help=help, labels=labels)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "gauge", help, labels)

    def summary(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "summary", help, labels)

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        """Every family in registration order (exposition order)."""
        return list(self._families.values())

    def value(self, name: str, **label_values: str) -> float:
        """Convenience read of one counter/gauge child's current value."""
        family = self._families.get(name)
        if family is None:
            raise MetricsError("no metric named %r" % name)
        child = family.labels(**label_values)
        if isinstance(child, Summary):
            raise MetricsError("metric %r is a summary; read its sketch instead" % name)
        return child.value

    def as_dict(self) -> Dict[str, Dict[Tuple[str, ...], float]]:
        """A plain snapshot {name: {label values: value}} for tests/tools.

        Summaries snapshot their count (the scalar that is always exact).
        """
        out: Dict[str, Dict[Tuple[str, ...], float]] = {}
        for family in self._families.values():
            series: Dict[Tuple[str, ...], float] = {}
            for key, child in family.children():
                series[key] = float(child.count if isinstance(child, Summary) else child.value)
            out[family.name] = series
        return out

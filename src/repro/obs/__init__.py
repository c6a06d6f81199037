"""Observability for the reproduction: spans, streaming metrics, exporters.

The package threads one telemetry layer through the whole request path:

* :mod:`repro.obs.sketch` — streaming quantile sketches (percentiles
  without retained samples): a log-bucketed histogram with bounded relative
  error.
* :mod:`repro.obs.registry` — an engine-owned metrics registry of counters,
  gauges and sketch-backed summaries.
* :mod:`repro.obs.spans` — request-lifecycle traces (queue / cold-start /
  service stage decomposition) and the latency-waterfall rollup.
* :mod:`repro.obs.streaming` — the one traffic-summary accumulator, over
  sketches (the engine's ``retain_records=False`` mode) or exact samples.
* :mod:`repro.obs.exporters` — Prometheus text exposition and JSONL events.
* :mod:`repro.obs.progress` — the periodic heartbeat reporter.
* :mod:`repro.obs.telemetry` — the facade the traffic engine calls.
"""

from repro.obs.exporters import (
    JsonlEventWriter,
    parse_prometheus,
    read_jsonl,
    render_prometheus,
    write_prometheus,
)
from repro.obs.progress import ProgressReporter
from repro.obs.registry import MetricsError, MetricsRegistry
from repro.obs.sketch import LogHistogram, QuantileSketch, SketchError
from repro.obs.spans import (
    STAGES,
    RequestTrace,
    SpanError,
    TraceLog,
    WaterfallRow,
)
from repro.obs.streaming import StreamingTrafficStats
from repro.obs.telemetry import Telemetry

__all__ = [
    "JsonlEventWriter",
    "LogHistogram",
    "MetricsError",
    "MetricsRegistry",
    "ProgressReporter",
    "QuantileSketch",
    "RequestTrace",
    "STAGES",
    "SketchError",
    "SpanError",
    "StreamingTrafficStats",
    "Telemetry",
    "TraceLog",
    "WaterfallRow",
    "parse_prometheus",
    "read_jsonl",
    "render_prometheus",
    "write_prometheus",
]

"""Aggregation of repeated transfer measurements.

The paper runs every configuration 10 times and reports means (Sec. 6.2).
:func:`aggregate_samples` folds :class:`TransferMetrics` samples of one mode
and payload size into an :class:`AggregateMetrics` of means.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

from repro.metrics.records import TransferMetrics


class CollectorError(RuntimeError):
    """Raised when aggregating an empty collection."""


@dataclass(frozen=True)
class AggregateMetrics:
    """Summary statistics over repeated transfers of one configuration."""

    mode: str
    payload_bytes: int
    samples: int
    mean_latency_s: float
    max_latency_s: float
    mean_serialization_s: float
    mean_wasm_io_s: float
    mean_cpu_user_s: float
    mean_cpu_kernel_s: float
    mean_peak_memory_mb: float

    @property
    def mean_throughput_rps(self) -> float:
        if self.mean_latency_s <= 0:
            return float("inf")
        return 1.0 / self.mean_latency_s

    @property
    def mean_serialization_throughput_rps(self) -> float:
        if self.mean_serialization_s <= 0:
            return float("inf")
        return 1.0 / self.mean_serialization_s

    @property
    def mean_cpu_total_s(self) -> float:
        return self.mean_cpu_user_s + self.mean_cpu_kernel_s

def aggregate_samples(samples: Sequence[TransferMetrics]) -> AggregateMetrics:
    """Collapse a list of samples (same mode and size) into summary statistics."""
    if not samples:
        raise CollectorError("cannot aggregate an empty sample list")
    modes = {s.mode for s in samples}
    sizes = {s.payload_bytes for s in samples}
    if len(modes) != 1 or len(sizes) != 1:
        raise CollectorError(
            "samples mix modes (%s) or sizes (%s); aggregate them separately" % (modes, sizes)
        )
    latencies = [s.total_latency_s for s in samples]
    return AggregateMetrics(
        mode=samples[0].mode,
        payload_bytes=samples[0].payload_bytes,
        samples=len(samples),
        mean_latency_s=statistics.fmean(latencies),
        max_latency_s=max(latencies),
        mean_serialization_s=statistics.fmean(s.serialization_s for s in samples),
        mean_wasm_io_s=statistics.fmean(s.wasm_io_s for s in samples),
        mean_cpu_user_s=statistics.fmean(s.cpu_user_s for s in samples),
        mean_cpu_kernel_s=statistics.fmean(s.cpu_kernel_s for s in samples),
        mean_peak_memory_mb=statistics.fmean(s.peak_memory_mb for s in samples),
    )

"""Trace-driven workloads: replay realistic invocation patterns.

The paper's evaluation uses fixed-size sweeps; production serverless traffic
is bursty and skewed (Shahrad et al., "Serverless in the Wild").  This module
generates deterministic synthetic invocation traces (bursty on/off periods,
payload-size mixes) and replays them against any data-passing
mode, reporting the latency distribution and resource totals.  It is used by
tests and available to downstream users who want to evaluate Roadrunner under
their own traffic shape rather than the paper's sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.experiments.harness import measure_pair
from repro.metrics.records import TransferMetrics
from repro.metrics.stats import mean, p95

MB = 1024 * 1024


class TraceError(ValueError):
    """Raised for invalid trace parameters."""


@dataclass(frozen=True)
class Invocation:
    """One invocation: when it arrives and how much data it moves."""

    arrival_s: float
    payload_bytes: int

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise TraceError("arrival time must be non-negative")
        if self.payload_bytes <= 0:
            raise TraceError("payload size must be positive")


@dataclass(frozen=True)
class InvocationTrace:
    """A time-ordered sequence of invocations."""

    name: str
    invocations: Tuple[Invocation, ...]

    def __post_init__(self) -> None:
        if not self.invocations:
            raise TraceError("a trace needs at least one invocation")
        arrivals = [inv.arrival_s for inv in self.invocations]
        if arrivals != sorted(arrivals):
            raise TraceError("invocations must be ordered by arrival time")

    def __len__(self) -> int:
        return len(self.invocations)

    @property
    def duration_s(self) -> float:
        return self.invocations[-1].arrival_s

    @property
    def total_bytes(self) -> int:
        return sum(inv.payload_bytes for inv in self.invocations)


def bursty_trace(
    bursts: int = 5, burst_size: int = 20, payload_mb: float = 10.0
) -> InvocationTrace:
    """On/off traffic: ``bursts`` bursts of ``burst_size`` calls 50 ms apart, 10 s between bursts."""
    if bursts <= 0 or burst_size <= 0:
        raise TraceError("bursts and burst_size must be positive")
    invocations: List[Invocation] = []
    clock = 0.0
    for _ in range(bursts):
        for _ in range(burst_size):
            invocations.append(Invocation(arrival_s=clock, payload_bytes=int(payload_mb * MB)))
            clock += 0.05
        clock += 10.0
    return InvocationTrace(name="bursty", invocations=tuple(invocations))


def mixed_size_trace(count: int = 100, seed: int = 0) -> InvocationTrace:
    """A skewed payload-size mix (mostly small, occasionally large), one call per 0.5 s."""
    if count <= 0:
        raise TraceError("count must be positive")
    rng = random.Random(seed)
    invocations = []
    for i in range(count):
        size_mb = rng.choices([1, 10, 60, 100], weights=[0.6, 0.25, 0.1, 0.05])[0]
        invocations.append(Invocation(arrival_s=i * 0.5, payload_bytes=int(size_mb * MB)))
    return InvocationTrace(name="mixed", invocations=tuple(invocations))


@dataclass(frozen=True)
class TraceReplayResult:
    """Aggregate results of replaying a trace in one mode."""

    trace_name: str
    mode: str
    invocations: int
    mean_latency_s: float
    p95_latency_s: float
    max_latency_s: float
    total_cpu_s: float
    busy_fraction: float

    def summary(self) -> str:
        return (
            "%s on %s: %d invocations, mean %.4fs, p95 %.4fs, max %.4fs, "
            "cpu %.2fs, busy %.1f%%"
            % (
                self.trace_name,
                self.mode,
                self.invocations,
                self.mean_latency_s,
                self.p95_latency_s,
                self.max_latency_s,
                self.total_cpu_s,
                100 * self.busy_fraction,
            )
        )


def replay_trace(trace: InvocationTrace, mode: str) -> TraceReplayResult:
    """Replay every invocation of ``trace`` through a fresh environment.

    Transfers with the same payload size share a cached measurement (the
    simulation is deterministic), so replaying long traces stays cheap.
    """
    cache: Dict[int, TransferMetrics] = {}
    latencies: List[float] = []
    total_cpu = 0.0
    for invocation in trace.invocations:
        metrics = cache.get(invocation.payload_bytes)
        if metrics is None:
            metrics = measure_pair(mode, invocation.payload_bytes / MB)
            cache[invocation.payload_bytes] = metrics
        latencies.append(metrics.total_latency_s)
        total_cpu += metrics.cpu_total_s
    slowest = max(latencies)
    window = max(trace.duration_s + slowest, slowest)
    busy = min(1.0, sum(latencies) / window) if window > 0 else 1.0
    return TraceReplayResult(
        trace_name=trace.name,
        mode=mode,
        invocations=len(trace),
        mean_latency_s=mean(latencies),
        p95_latency_s=p95(latencies),
        max_latency_s=slowest,
        total_cpu_s=total_cpu,
        busy_fraction=busy,
    )


def compare_modes_on_trace(
    trace: InvocationTrace, modes: Sequence[str]
) -> Dict[str, TraceReplayResult]:
    """Replay the same trace in several modes, on one node (keyed by mode)."""
    return {mode: replay_trace(trace, mode) for mode in modes}

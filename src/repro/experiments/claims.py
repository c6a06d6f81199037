"""Programmatic check of the paper's headline claims.

This module computes the paper-vs-measured comparison as data, so the CLI
can print it (``repro claims``, persisted as ``results/claims.txt``) and
tests can assert it.  Each claim records the paper's reported value, the measured value
from the reproduction, and whether the measured value satisfies a
conservative acceptance rule (same direction, at or beyond a lower bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.harness import measure_fanout, measure_pair
from repro.metrics.report import format_table, improvement_percent, speedup
from repro.workloads.generators import FANOUT_PAYLOAD_MB


@dataclass(frozen=True)
class ClaimCheck:
    """One headline claim and how the reproduction fares against it."""

    claim_id: str
    description: str
    paper_value: str
    measured_value: str
    satisfied: bool


def _pct(value: float) -> str:
    return "%.1f%%" % value


def _x(value: float) -> str:
    return "%.1fx" % value


def evaluate_claims(payload_mb: float = 100, fanout_degree: int = 50) -> List[ClaimCheck]:
    """Run the minimal experiments behind each headline claim and grade them."""
    checks: List[ClaimCheck] = []

    # Intra-node pair -----------------------------------------------------------
    rr_user = measure_pair("roadrunner-user", payload_mb)
    rr_kernel = measure_pair("roadrunner-kernel", payload_mb)
    runc = measure_pair("runc-http", payload_mb)
    wasm = measure_pair("wasmedge-http", payload_mb)

    user_vs_wasm = improvement_percent(wasm.total_latency_s, rr_user.total_latency_s)
    checks.append(ClaimCheck(
        "intra-user-vs-wasmedge",
        "Intra-node latency, Roadrunner (User space) vs WasmEdge",
        "-44% to -89%", "-" + _pct(user_vs_wasm), user_vs_wasm >= 44.0,
    ))
    user_vs_runc = improvement_percent(runc.total_latency_s, rr_user.total_latency_s)
    checks.append(ClaimCheck(
        "intra-user-vs-runc",
        "Intra-node latency, Roadrunner (User space) vs RunC",
        "-10% to -80%", "-" + _pct(user_vs_runc), user_vs_runc >= 10.0,
    ))
    kernel_vs_wasm = improvement_percent(wasm.total_latency_s, rr_kernel.total_latency_s)
    checks.append(ClaimCheck(
        "intra-kernel-vs-wasmedge",
        "Intra-node latency, Roadrunner (Kernel space) vs WasmEdge",
        "-76% to -83%", "-" + _pct(kernel_vs_wasm), kernel_vs_wasm >= 70.0,
    ))
    kernel_vs_runc = improvement_percent(runc.total_latency_s, rr_kernel.total_latency_s)
    checks.append(ClaimCheck(
        "intra-kernel-vs-runc",
        "Intra-node latency, Roadrunner (Kernel space) vs RunC",
        "up to -13%", "-" + _pct(kernel_vs_runc), kernel_vs_runc > 0.0,
    ))
    cpu_reduction = improvement_percent(wasm.cpu_total_s, rr_user.cpu_total_s)
    checks.append(ClaimCheck(
        "intra-cpu",
        "Intra-node CPU usage, Roadrunner vs WasmEdge",
        "up to -94%", "-" + _pct(cpu_reduction), cpu_reduction >= 80.0,
    ))
    ram_reduction = improvement_percent(wasm.peak_memory_mb, rr_user.peak_memory_mb)
    checks.append(ClaimCheck(
        "intra-ram",
        "Intra-node RAM usage, Roadrunner vs WasmEdge",
        "up to -50%", "-" + _pct(ram_reduction), ram_reduction >= 50.0,
    ))

    # Inter-node pair ---------------------------------------------------------------
    rr_net = measure_pair("roadrunner-network", payload_mb, internode=True)
    runc_net = measure_pair("runc-http", payload_mb, internode=True)
    wasm_net = measure_pair("wasmedge-http", payload_mb, internode=True)

    net_vs_wasm = improvement_percent(wasm_net.total_latency_s, rr_net.total_latency_s)
    checks.append(ClaimCheck(
        "inter-total-vs-wasmedge",
        "Inter-node total latency, Roadrunner vs WasmEdge",
        "-62%", "-" + _pct(net_vs_wasm), 45.0 <= net_vs_wasm <= 75.0,
    ))
    net_vs_runc = improvement_percent(runc_net.total_latency_s, rr_net.total_latency_s)
    checks.append(ClaimCheck(
        "inter-total-vs-runc",
        "Inter-node total latency, Roadrunner vs RunC",
        "-7%", "-" + _pct(net_vs_runc), 0.0 < net_vs_runc <= 25.0,
    ))
    ser_vs_wasm = improvement_percent(wasm_net.serialization_s, rr_net.serialization_s)
    checks.append(ClaimCheck(
        "inter-serialization-vs-wasmedge",
        "Inter-node serialization overhead, Roadrunner vs WasmEdge",
        "-97%", "-" + _pct(ser_vs_wasm), ser_vs_wasm >= 97.0,
    ))
    ser_vs_runc = improvement_percent(runc_net.serialization_s, rr_net.serialization_s)
    checks.append(ClaimCheck(
        "inter-serialization-vs-runc",
        "Inter-node serialization overhead, Roadrunner vs RunC",
        "-46%", "-" + _pct(ser_vs_runc), ser_vs_runc >= 46.0,
    ))

    # Throughput -----------------------------------------------------------------------
    rr_small = measure_pair("roadrunner-user", 1)
    wasm_small = measure_pair("wasmedge-http", 1)
    throughput_gain = speedup(wasm_small.total_latency_s, rr_small.total_latency_s)
    checks.append(ClaimCheck(
        "throughput",
        "Throughput, Roadrunner (User space) vs WasmEdge, 1 MB payloads",
        "up to 69x", _x(throughput_gain), throughput_gain >= 20.0,
    ))

    # Fan-out --------------------------------------------------------------------------
    rr_fan = measure_fanout("roadrunner-user", fanout_degree, FANOUT_PAYLOAD_MB)
    runc_fan = measure_fanout("runc-http", fanout_degree, FANOUT_PAYLOAD_MB)
    wasm_fan = measure_fanout("wasmedge-http", fanout_degree, FANOUT_PAYLOAD_MB)
    fan_latency = improvement_percent(runc_fan.mean_branch_latency_s, rr_fan.mean_branch_latency_s)
    checks.append(ClaimCheck(
        "fanout-latency-vs-runc",
        "Intra-node fan-out latency, Roadrunner (User space) vs RunC",
        "up to -70%", "-" + _pct(fan_latency), fan_latency > 0.0,
    ))
    fan_throughput = rr_fan.throughput_rps / wasm_fan.throughput_rps
    checks.append(ClaimCheck(
        "fanout-throughput-vs-wasmedge",
        "Intra-node fan-out throughput, Roadrunner (User space) vs WasmEdge",
        "up to 64x", _x(fan_throughput), fan_throughput >= 4.0,
    ))
    return checks


def render_claims(checks: List[ClaimCheck]) -> str:
    """Format the claim checks as a fixed-width table."""
    rows = [
        [c.claim_id, c.description, c.paper_value, c.measured_value, "yes" if c.satisfied else "NO"]
        for c in checks
    ]
    return format_table(
        ["id", "claim", "paper", "measured", "satisfied"],
        rows,
        title="Headline claims: paper vs reproduction",
    )

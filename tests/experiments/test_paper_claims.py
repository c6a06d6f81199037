"""The paper's headline claims, asserted against the reproduced experiments.

Absolute numbers cannot transfer from the authors' testbed to a simulation,
so each claim is checked as a *shape*: who wins, in which direction, and with
a conservative lower bound on the improvement.  The ``repro claims`` table
(``results/claims.txt``) records the exact measured values next to the
paper's.
"""

import pytest

from repro.experiments.harness import measure_fanout, measure_pair
from repro.metrics.report import improvement_percent, speedup


# ---------------------------------------------------------------------------
# Intra-node chained pair (Sec. 6.3, Fig. 7)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("payload_mb", [10, 100])
def test_user_space_beats_wasmedge_by_at_least_44_percent(payload_mb):
    rr = measure_pair("roadrunner-user", payload_mb)
    wasm = measure_pair("wasmedge-http", payload_mb)
    assert improvement_percent(wasm.total_latency_s, rr.total_latency_s) >= 44.0


@pytest.mark.parametrize("payload_mb", [10, 100])
def test_user_space_beats_runc_by_at_least_10_percent(payload_mb):
    rr = measure_pair("roadrunner-user", payload_mb)
    runc = measure_pair("runc-http", payload_mb)
    assert improvement_percent(runc.total_latency_s, rr.total_latency_s) >= 10.0


@pytest.mark.parametrize("payload_mb", [10, 100])
def test_kernel_space_beats_wasmedge_by_at_least_70_percent(payload_mb):
    rr = measure_pair("roadrunner-kernel", payload_mb)
    wasm = measure_pair("wasmedge-http", payload_mb)
    assert improvement_percent(wasm.total_latency_s, rr.total_latency_s) >= 70.0


def test_kernel_space_is_at_least_as_fast_as_runc_at_100mb():
    rr = measure_pair("roadrunner-kernel", 100)
    runc = measure_pair("runc-http", 100)
    assert rr.total_latency_s <= runc.total_latency_s


def test_intranode_latency_ordering_holds_across_the_sweep():
    for payload_mb in (1, 50, 200):
        rr_user = measure_pair("roadrunner-user", payload_mb).total_latency_s
        rr_kernel = measure_pair("roadrunner-kernel", payload_mb).total_latency_s
        wasm = measure_pair("wasmedge-http", payload_mb).total_latency_s
        assert rr_user < rr_kernel < wasm


# ---------------------------------------------------------------------------
# Inter-node chained pair (Sec. 6.3, Figs. 6 and 8)
# ---------------------------------------------------------------------------


def test_internode_total_latency_reduced_by_about_62_percent_vs_wasmedge():
    rr = measure_pair("roadrunner-network", 100, internode=True)
    wasm = measure_pair("wasmedge-http", 100, internode=True)
    reduction = improvement_percent(wasm.total_latency_s, rr.total_latency_s)
    assert 45.0 <= reduction <= 75.0


def test_internode_total_latency_slightly_below_runc():
    rr = measure_pair("roadrunner-network", 100, internode=True)
    runc = measure_pair("runc-http", 100, internode=True)
    reduction = improvement_percent(runc.total_latency_s, rr.total_latency_s)
    assert 0.0 < reduction <= 25.0


def test_internode_serialization_reduced_by_at_least_97_percent_vs_wasmedge():
    rr = measure_pair("roadrunner-network", 100, internode=True)
    wasm = measure_pair("wasmedge-http", 100, internode=True)
    assert improvement_percent(wasm.serialization_s, rr.serialization_s) >= 97.0


def test_internode_serialization_reduced_vs_runc():
    rr = measure_pair("roadrunner-network", 100, internode=True)
    runc = measure_pair("runc-http", 100, internode=True)
    assert improvement_percent(runc.serialization_s, rr.serialization_s) >= 46.0


def test_roadrunner_pays_wasm_io_that_runc_does_not():
    """Fig. 6a: Roadrunner's penalty for reaching into the Wasm VM."""
    rr = measure_pair("roadrunner-network", 100, internode=True)
    runc = measure_pair("runc-http", 100, internode=True)
    assert rr.wasm_io_s > 0
    assert runc.wasm_io_s == 0


# ---------------------------------------------------------------------------
# Throughput and resources (Sec. 6.3-6.5)
# ---------------------------------------------------------------------------


def test_user_space_throughput_improvement_over_wasmedge_is_large():
    """Abstract: up to 69x more throughput than the Wasm baseline."""
    rr = measure_pair("roadrunner-user", 1)
    wasm = measure_pair("wasmedge-http", 1)
    assert speedup(wasm.total_latency_s, rr.total_latency_s) >= 20.0


def test_intranode_cpu_reduced_vs_wasmedge():
    """Sec. 6.5: up to 94% less CPU than WasmEdge intra-node."""
    rr = measure_pair("roadrunner-user", 100)
    wasm = measure_pair("wasmedge-http", 100)
    assert improvement_percent(wasm.cpu_total_s, rr.cpu_total_s) >= 80.0


def test_intranode_ram_reduced_vs_wasmedge():
    """Sec. 6.5: up to 50% less RAM than WasmEdge intra-node."""
    rr = measure_pair("roadrunner-user", 100)
    wasm = measure_pair("wasmedge-http", 100)
    assert improvement_percent(wasm.peak_memory_mb, rr.peak_memory_mb) >= 50.0


def test_internode_cpu_and_ram_reduced_vs_wasmedge():
    """Sec. 6.5: up to 85% less CPU and 25% less RAM inter-node."""
    rr = measure_pair("roadrunner-network", 100, internode=True)
    wasm = measure_pair("wasmedge-http", 100, internode=True)
    assert improvement_percent(wasm.cpu_total_s, rr.cpu_total_s) >= 60.0
    assert improvement_percent(wasm.peak_memory_mb, rr.peak_memory_mb) >= 25.0


# ---------------------------------------------------------------------------
# Fan-out scalability (Sec. 6.4, Figs. 9 and 10)
# ---------------------------------------------------------------------------


def test_intranode_fanout_user_space_beats_wasmedge():
    rr = measure_fanout("roadrunner-user", degree=50, payload_mb=10)
    wasm = measure_fanout("wasmedge-http", degree=50, payload_mb=10)
    assert rr.mean_branch_latency_s < wasm.mean_branch_latency_s
    assert speedup(wasm.total_latency_s, rr.total_latency_s) >= 4.0


def test_intranode_fanout_kernel_space_beats_wasmedge():
    rr = measure_fanout("roadrunner-kernel", degree=50, payload_mb=10)
    wasm = measure_fanout("wasmedge-http", degree=50, payload_mb=10)
    assert improvement_percent(wasm.mean_branch_latency_s, rr.mean_branch_latency_s) >= 70.0
    assert speedup(wasm.total_latency_s, rr.total_latency_s) >= 4.0


def test_intranode_fanout_user_space_beats_runc():
    rr = measure_fanout("roadrunner-user", degree=50, payload_mb=10)
    runc = measure_fanout("runc-http", degree=50, payload_mb=10)
    assert rr.mean_branch_latency_s < runc.mean_branch_latency_s
    assert rr.throughput_rps > runc.throughput_rps


def test_internode_fanout_roadrunner_beats_wasmedge():
    """Sec. 6.4: up to 65% lower latency and 2.8x throughput inter-node."""
    rr = measure_fanout("roadrunner-network", degree=50, payload_mb=10, internode=True)
    wasm = measure_fanout("wasmedge-http", degree=50, payload_mb=10, internode=True)
    assert improvement_percent(wasm.mean_branch_latency_s, rr.mean_branch_latency_s) >= 40.0
    assert speedup(wasm.total_latency_s, rr.total_latency_s) >= 2.0

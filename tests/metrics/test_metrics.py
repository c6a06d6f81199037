"""Unit tests for transfer metrics, the ledger window and reports."""

import pytest

from repro.metrics.records import LedgerWindow, TransferMetrics
from repro.metrics.report import format_figure_result, format_table, improvement_percent, speedup
from repro.sim.ledger import CostCategory, CostLedger, CpuDomain


def make_metrics(mode="m", latency=1.0, serialization=0.2, payload=1000, cpu_user=0.3, cpu_kernel=0.1):
    return TransferMetrics(
        mode=mode,
        payload_bytes=payload,
        total_latency_s=latency,
        serialization_s=serialization,
        wasm_io_s=0.05,
        transfer_s=latency - serialization,
        cpu_user_s=cpu_user,
        cpu_kernel_s=cpu_kernel,
        copied_bytes=payload,
        reference_bytes=0,
        syscalls=3,
        context_switches=1,
        peak_memory_mb=10.0,
    )


def test_transfer_metrics_derived_quantities():
    metrics = make_metrics(latency=2.0, serialization=0.5)
    assert metrics.throughput_rps == pytest.approx(0.5)
    assert metrics.cpu_total_s == pytest.approx(0.4)


def test_ledger_window_measures_only_enclosed_charges():
    ledger = CostLedger()
    ledger.charge(CostCategory.NETWORK, 1.0)  # outside the window
    with LedgerWindow(ledger, mode="test", payload_bytes=100) as window:
        ledger.charge(CostCategory.SERIALIZATION, 0.25, cpu_domain=CpuDomain.USER)
        ledger.charge(CostCategory.MEMCPY, 0.1, cpu_domain=CpuDomain.KERNEL, nbytes=100, copied=True)
        ledger.charge(CostCategory.SYSCALL, 0.001, cpu_domain=CpuDomain.KERNEL)
    metrics = window.metrics
    assert metrics.total_latency_s == pytest.approx(0.351)
    assert metrics.serialization_s == pytest.approx(0.25)
    assert metrics.cpu_user_s == pytest.approx(0.25)
    assert metrics.cpu_kernel_s == pytest.approx(0.101)
    assert metrics.copied_bytes == 100
    assert metrics.syscalls == 1


def test_ledger_window_before_close_raises():
    ledger = CostLedger()
    window = LedgerWindow(ledger, mode="test", payload_bytes=1)
    with pytest.raises(RuntimeError):
        _ = window.metrics


def test_format_table_aligns_columns():
    text = format_table(["name", "value"], [["a", 1.5], ["longer", 0.000001]], title="demo")
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5


def test_format_figure_result_one_column_per_series():
    text = format_figure_result(
        title="panel",
        x_label="size",
        x_values=[1, 2],
        series={"A": [0.1, 0.2], "B": [1.0, 2.0]},
    )
    assert "A" in text and "B" in text and "size" in text


def test_improvement_and_speedup_helpers():
    assert improvement_percent(2.0, 1.0) == pytest.approx(50.0)
    assert improvement_percent(0.0, 1.0) == 0.0
    assert speedup(10.0, 2.0) == pytest.approx(5.0)
    assert speedup(1.0, 0.0) == float("inf")

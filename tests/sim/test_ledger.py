"""Unit tests for the cost ledger and memory meters."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.ledger import (
    Charge,
    CostCategory,
    CostLedger,
    CpuDomain,
    LedgerError,
    MemoryMeter,
)


def test_charge_advances_clock_and_is_recorded():
    ledger = CostLedger()
    ledger.charge(CostCategory.MEMCPY, 0.5, nbytes=100, copied=True)
    assert ledger.clock.now == pytest.approx(0.5)
    assert ledger.total_seconds() == pytest.approx(0.5)
    assert ledger.copied_bytes == 100


def test_non_wall_time_charge_does_not_advance_clock():
    ledger = CostLedger()
    ledger.charge(CostCategory.MEMCPY, 0.5, wall_time=False)
    assert ledger.clock.now == 0.0
    assert ledger.total_seconds() == pytest.approx(0.5)


def test_charge_rejects_negative_values():
    ledger = CostLedger()
    with pytest.raises(LedgerError):
        ledger.charge(CostCategory.MEMCPY, -1.0)
    with pytest.raises(LedgerError):
        ledger.charge(CostCategory.MEMCPY, 1.0, nbytes=-5)


def test_serialization_seconds_sums_both_directions():
    ledger = CostLedger()
    ledger.charge(CostCategory.SERIALIZATION, 0.2)
    ledger.charge(CostCategory.DESERIALIZATION, 0.3)
    ledger.charge(CostCategory.NETWORK, 1.0)
    assert ledger.serialization_seconds() == pytest.approx(0.5)


def test_cpu_seconds_split_by_domain():
    ledger = CostLedger()
    ledger.charge(CostCategory.MEMCPY, 0.2, cpu_domain=CpuDomain.USER)
    ledger.charge(CostCategory.SYSCALL, 0.1, cpu_domain=CpuDomain.KERNEL)
    ledger.charge(CostCategory.NETWORK, 5.0, cpu_domain=CpuDomain.NONE)
    assert ledger.cpu_seconds(CpuDomain.USER) == pytest.approx(0.2)
    assert ledger.cpu_seconds(CpuDomain.KERNEL) == pytest.approx(0.1)
    # NONE does not consume CPU.
    assert ledger.cpu_seconds() == pytest.approx(0.3)


def test_reference_bytes_tracked_separately_from_copies():
    ledger = CostLedger()
    ledger.charge(CostCategory.SPLICE, 0.001, nbytes=4096, copied=False)
    assert ledger.copied_bytes == 0
    assert ledger.reference_bytes == 4096


def test_syscall_and_context_switch_counters():
    ledger = CostLedger()
    ledger.charge(CostCategory.SYSCALL, 1e-6)
    ledger.charge(CostCategory.CONTEXT_SWITCH, 3e-6)
    ledger.count_syscalls(4)
    assert ledger.syscalls == 5
    assert ledger.context_switches == 1


def test_breakdown_groups_by_category():
    ledger = CostLedger()
    ledger.charge(CostCategory.NETWORK, 1.0)
    ledger.charge(CostCategory.NETWORK, 0.5)
    ledger.charge(CostCategory.WASM_IO, 0.25)
    breakdown = ledger.breakdown()
    assert breakdown["network"] == pytest.approx(1.5)
    assert breakdown["wasm_io"] == pytest.approx(0.25)


def test_meter_tracks_peak_and_floor():
    meter = MemoryMeter(baseline_bytes=100)
    meter.allocate(50)
    meter.allocate(25)
    meter.free(60)
    assert meter.peak_bytes == 175
    assert meter.current_bytes == 115
    meter.free(15)
    assert meter.current_bytes == 100  # back at the baseline


def test_meter_rejects_over_free():
    # Freeing more than is allocated above the baseline is a double-free
    # style accounting bug; it must raise, not silently clamp.
    meter = MemoryMeter(baseline_bytes=100)
    meter.allocate(50)
    with pytest.raises(LedgerError):
        meter.free(51)
    # The failed free must not have corrupted the level.
    assert meter.current_bytes == 150
    meter.free(50)
    assert meter.current_bytes == 100
    with pytest.raises(LedgerError):
        meter.free(1)  # nothing allocated: any free is an over-free


def test_meter_rejects_negative_amounts():
    meter = MemoryMeter()
    with pytest.raises(LedgerError):
        meter.allocate(-1)
    with pytest.raises(LedgerError):
        meter.free(-1)


def test_ledger_meters_sum_into_peak_memory():
    ledger = CostLedger()
    ledger.meter("sandbox-a", baseline_bytes=10).allocate(90)
    ledger.meter("sandbox-b").allocate(100)
    assert ledger.peak_memory_bytes() == 200
    assert ledger.peak_memory_mb() == pytest.approx(200 / (1024 * 1024))


def test_meter_is_reused_by_name():
    ledger = CostLedger()
    first = ledger.meter("same")
    second = ledger.meter("same")
    assert first is second


def test_reset_clears_everything():
    ledger = CostLedger()
    ledger.charge(CostCategory.MEMCPY, 1.0, nbytes=10, copied=True)
    ledger.meter("m").allocate(10)
    ledger.reset()
    assert len(ledger) == 0
    assert ledger.copied_bytes == 0
    assert ledger.clock.now == 0.0
    assert ledger.peak_memory_bytes() == 0


def test_charges_are_immutable_records():
    charge = Charge(category=CostCategory.MEMCPY, seconds=0.1)
    with pytest.raises(AttributeError):
        charge.seconds = 1.0  # type: ignore[misc]


def test_shared_clock_is_respected():
    clock = SimClock(start=3.0)
    ledger = CostLedger(clock=clock)
    ledger.charge(CostCategory.NETWORK, 1.0)
    assert clock.now == pytest.approx(4.0)

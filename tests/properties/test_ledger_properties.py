"""Property-based tests for the cost ledger's accounting invariants."""

from hypothesis import given
from hypothesis import strategies as st

import pytest

from repro.sim.ledger import CostCategory, CostLedger, CpuDomain

charge_strategy = st.tuples(
    st.sampled_from(list(CostCategory)),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.sampled_from(list(CpuDomain)),
    st.integers(min_value=0, max_value=1 << 20),
    st.booleans(),
)


@given(charges=st.lists(charge_strategy, max_size=50))
def test_total_seconds_equals_clock_advance_for_wall_time_charges(charges):
    ledger = CostLedger()
    for category, seconds, domain, nbytes, copied in charges:
        ledger.charge(category, seconds, cpu_domain=domain, nbytes=nbytes, copied=copied)
    assert ledger.clock.now == pytest.approx(ledger.total_seconds())


@given(charges=st.lists(charge_strategy, max_size=50))
def test_breakdown_sums_to_total(charges):
    ledger = CostLedger()
    for category, seconds, domain, nbytes, copied in charges:
        ledger.charge(category, seconds, cpu_domain=domain, nbytes=nbytes, copied=copied)
    assert sum(ledger.breakdown().values()) == pytest.approx(ledger.total_seconds())


@given(charges=st.lists(charge_strategy, max_size=50))
def test_cpu_seconds_partition_by_domain(charges):
    ledger = CostLedger()
    for category, seconds, domain, nbytes, copied in charges:
        ledger.charge(category, seconds, cpu_domain=domain, nbytes=nbytes, copied=copied)
    user = ledger.cpu_seconds(CpuDomain.USER)
    kernel = ledger.cpu_seconds(CpuDomain.KERNEL)
    assert ledger.cpu_seconds() == pytest.approx(user + kernel)
    assert ledger.cpu_seconds() <= ledger.total_seconds() + 1e-9


@given(charges=st.lists(charge_strategy, max_size=50))
def test_byte_accounting_partitions_copied_and_referenced(charges):
    ledger = CostLedger()
    total_bytes = 0
    for category, seconds, domain, nbytes, copied in charges:
        ledger.charge(category, seconds, cpu_domain=domain, nbytes=nbytes, copied=copied)
        total_bytes += nbytes
    assert ledger.copied_bytes + ledger.reference_bytes == total_bytes

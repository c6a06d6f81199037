"""Property tests: the one-pass LedgerWindow equals the per-metric scans.

``LedgerWindow._build`` reads a window's charges once.  Its contract is
that every metric is *exactly* (``==``, not approximately) what one scan per
metric over the same charges gives — the float sums in the same order, the
breakdown and per-node dicts with the same keys in the same order — for any
interleaving of charges across the shards of a cluster ledger.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.records import LedgerWindow
from repro.sim.ledger import (
    SERIALIZATION_CATEGORIES,
    ClusterLedger,
    CostCategory,
    CostLedger,
    CpuDomain,
)

TRANSFER_CATEGORIES = (
    CostCategory.TRANSFER,
    CostCategory.MEMCPY,
    CostCategory.SYSCALL,
    CostCategory.CONTEXT_SWITCH,
    CostCategory.IPC,
    CostCategory.NETWORK,
    CostCategory.SPLICE,
    CostCategory.HTTP,
)

# Values whose sums round differently in different orders, plus zeros.
seconds_strategy = st.one_of(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 1e-9, 1e-6, 0.1, 0.2, 0.3, 1.0 / 3.0, 12345.678]),
)



@st.composite
def charge_lists(draw, max_size):
    """Charges over a small palette of categories and domains.

    A narrow palette puts many charges into each metric, so a sum taken in
    any other order than the scan's shows up as a last-bit difference.
    """
    categories = draw(st.lists(st.sampled_from(list(CostCategory)), min_size=1, max_size=4))
    domains = draw(st.lists(st.sampled_from(list(CpuDomain)), min_size=1, max_size=2))
    entry = st.tuples(
        st.integers(min_value=0, max_value=3),  # shard index (0 = cluster shard)
        st.sampled_from(categories),
        seconds_strategy,
        st.sampled_from(domains),
        st.one_of(st.just(0), st.integers(min_value=0, max_value=1 << 20)),
        st.booleans(),  # copied
        st.booleans(),  # wall_time (False keeps the timestamp: same-time ties)
        st.integers(min_value=1, max_value=5),  # units
    )
    return draw(st.lists(entry, max_size=max_size))


SCALAR_METRICS = (
    "serialization_s",
    "wasm_io_s",
    "transfer_s",
    "cpu_user_s",
    "cpu_kernel_s",
    "copied_bytes",
    "reference_bytes",
    "syscalls",
    "context_switches",
)


def _scans(charges):
    """The metrics of a window, one scan per metric."""
    breakdown = {}
    node_seconds = {}
    for c in charges:
        breakdown[c.category.value] = breakdown.get(c.category.value, 0.0) + c.seconds
        node_seconds[c.node] = node_seconds.get(c.node, 0.0) + c.seconds
    return {
        "serialization_s": sum(c.seconds for c in charges if c.category in SERIALIZATION_CATEGORIES),
        "wasm_io_s": sum(c.seconds for c in charges if c.category is CostCategory.WASM_IO),
        "transfer_s": sum(c.seconds for c in charges if c.category in TRANSFER_CATEGORIES),
        "cpu_user_s": sum(c.seconds for c in charges if c.cpu_domain is CpuDomain.USER),
        "cpu_kernel_s": sum(c.seconds for c in charges if c.cpu_domain is CpuDomain.KERNEL),
        "copied_bytes": sum(c.nbytes for c in charges if c.copied),
        "reference_bytes": sum(c.nbytes for c in charges if not c.copied and c.nbytes),
        "syscalls": sum(c.units for c in charges if c.category is CostCategory.SYSCALL),
        "context_switches": sum(1 for c in charges if c.category is CostCategory.CONTEXT_SWITCH),
        "breakdown": list(breakdown.items()),
        "node_seconds": list(node_seconds.items()),
    }


def _measured(metrics):
    """The same metrics as LedgerWindow reported them (dicts in key order)."""
    measured = {name: getattr(metrics, name) for name in SCALAR_METRICS}
    measured["breakdown"] = list(metrics.breakdown.items())
    measured["node_seconds"] = list(metrics.node_seconds.items())
    return measured


def _charge(shards, entry):
    index, category, seconds, domain, nbytes, copied, wall_time, units = entry
    shards[index % len(shards)].charge(
        category,
        seconds,
        cpu_domain=domain,
        nbytes=nbytes,
        copied=copied,
        wall_time=wall_time,
        units=units,
    )


def _assert_window_matches_scans(ledger, window, start, start_time):
    metrics = window.metrics
    expected = _scans(ledger.charges_since(start))
    measured = _measured(metrics)
    assert measured == expected
    # Types too: a metric no charge fed stays the int 0 a bare sum() gives.
    assert [type(v) for v in measured.values()] == [type(v) for v in expected.values()]
    assert metrics.total_latency_s == ledger.clock.now - start_time
    assert metrics.peak_memory_mb == (
        sum(m.peak_bytes for m in ledger.meters().values()) / (1024.0 * 1024.0)
    )


@given(
    nodes=st.integers(min_value=1, max_value=3),
    before=charge_lists(max_size=10),
    inside=charge_lists(max_size=60),
    allocations=st.lists(st.integers(min_value=0, max_value=1 << 24), max_size=4),
)
def test_cluster_window_equals_per_metric_scans(nodes, before, inside, allocations):
    ledger = ClusterLedger()
    shards = [ledger] + [ledger.shard("node-%d" % i) for i in range(nodes)]
    for entry in before:
        _charge(shards, entry)
    start, start_time = ledger.snapshot(), ledger.clock.now
    with LedgerWindow(ledger, mode="m", payload_bytes=1) as window:
        for entry in inside:
            _charge(shards, entry)
        for i, nbytes in enumerate(allocations):
            shards[i % len(shards)].meter("sandbox-%d" % i).allocate(nbytes)
    _assert_window_matches_scans(ledger, window, start, start_time)


@given(
    before=charge_lists(max_size=10),
    inside=charge_lists(max_size=60),
)
def test_standalone_window_equals_per_metric_scans(before, inside):
    ledger = CostLedger()
    for entry in before:
        _charge([ledger], entry)
    start, start_time = ledger.snapshot(), ledger.clock.now
    with LedgerWindow(ledger, mode="m", payload_bytes=1) as window:
        for entry in inside:
            _charge([ledger], entry)
    _assert_window_matches_scans(ledger, window, start, start_time)

"""Property tests for ledger sharding: sharded == single-ledger equivalence.

The refactor's core claim is that splitting cluster accounting into
per-node shards changes *where* charges are stored but nothing about what
they add up to: any interleaving of per-node charges, applied to shards and
merged, must match the same interleaving applied to one shared ledger —
totals, per-category breakdowns, byte counters and percentile inputs alike.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.metrics.stats import LatencySummary
from repro.sim.ledger import ClusterLedger, CostCategory, CostLedger, CpuDomain

NODES = ("n0", "n1", "n2")

charge_strategy = st.tuples(
    st.sampled_from(NODES),
    st.sampled_from(list(CostCategory)),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    st.sampled_from(list(CpuDomain)),
    st.integers(min_value=0, max_value=1 << 16),
    st.booleans(),
    st.booleans(),  # wall_time
)


def _apply(ledger, entries):
    for _, category, seconds, domain, nbytes, copied, wall_time in entries:
        ledger.charge(
            category,
            seconds,
            cpu_domain=domain,
            nbytes=nbytes,
            copied=copied,
            wall_time=wall_time,
        )


def _sharded(entries):
    """The same interleaving charged onto per-node shards of one cluster."""
    cluster = ClusterLedger()
    shards = {node: cluster.shard(node) for node in NODES}
    for entry in entries:
        _apply(shards[entry[0]], [entry])
    return cluster


@given(entries=st.lists(charge_strategy, max_size=60))
@settings(max_examples=80, deadline=None)
def test_any_interleaving_merges_to_single_ledger_totals(entries):
    single = CostLedger()
    _apply(single, entries)
    cluster = _sharded(entries)

    assert len(cluster) == len(single)
    assert cluster.total_seconds() == pytest.approx(single.total_seconds())
    assert cluster.clock.now == pytest.approx(single.clock.now)
    for category in CostCategory:
        assert cluster.seconds(category) == pytest.approx(single.seconds(category))
    for domain in CpuDomain:
        assert cluster.cpu_seconds(domain) == pytest.approx(single.cpu_seconds(domain))
    assert cluster.copied_bytes == single.copied_bytes
    assert cluster.reference_bytes == single.reference_bytes
    assert cluster.syscalls == single.syscalls
    assert cluster.context_switches == single.context_switches
    merged_breakdown = cluster.breakdown()
    for key, value in single.breakdown().items():
        assert merged_breakdown[key] == pytest.approx(value)


@given(entries=st.lists(charge_strategy, min_size=1, max_size=60))
@settings(max_examples=80, deadline=None)
def test_percentiles_survive_sharding(entries):
    """The latency distribution over merged charges matches the single run."""
    single = CostLedger()
    _apply(single, entries)
    cluster = _sharded(entries)
    reference = LatencySummary.from_samples([c.seconds for c in single.charges])
    merged = LatencySummary.from_samples([c.seconds for c in cluster.charges])
    assert merged.count == reference.count
    assert merged.mean_s == pytest.approx(reference.mean_s)
    assert merged.p50_s == pytest.approx(reference.p50_s)
    assert merged.p95_s == pytest.approx(reference.p95_s)
    assert merged.p99_s == pytest.approx(reference.p99_s)
    assert merged.max_s == pytest.approx(reference.max_s)

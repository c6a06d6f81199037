"""Unit tests for the sharded cluster ledger (NodeLedger + ClusterLedger)."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.ledger import (
    ClusterLedger,
    CostCategory,
    CostLedger,
    CpuDomain,
    LedgerError,
)


def test_shards_get_unique_ledger_names():
    cluster = ClusterLedger()
    edge = cluster.shard("edge")
    cloud = cluster.shard("cloud")
    assert edge.name == "ledger:edge"
    assert cloud.name == "ledger:cloud"
    with pytest.raises(LedgerError):
        cluster.shard("edge")
    with pytest.raises(LedgerError):
        cluster.shard("cluster")  # reserved for the cluster shard


def test_charges_stamp_node_and_sequence():
    cluster = ClusterLedger()
    node = cluster.shard("n1")
    first = node.charge(CostCategory.SYSCALL, 0.1)
    second = node.charge(CostCategory.MEMCPY, 0.2)
    assert (first.node, first.seq) == ("n1", 0)
    assert (second.node, second.seq) == ("n1", 1)
    ingress = cluster.charge(CostCategory.HTTP, 0.05)
    assert ingress.node == "cluster"


def test_merged_view_orders_by_time_then_node_then_seq():
    cluster = ClusterLedger()
    a = cluster.shard("a")
    b = cluster.shard("b")
    # Interleave across shards; the shared clock advances through both.
    b.charge(CostCategory.SYSCALL, 0.1, label="b0")
    a.charge(CostCategory.SYSCALL, 0.1, label="a0")
    # Two zero-width charges at the same instant: node name breaks the tie.
    b.charge(CostCategory.MEMCPY, 0.0, label="b1", wall_time=False)
    a.charge(CostCategory.MEMCPY, 0.0, label="a1", wall_time=False)
    labels = [charge.label for charge in cluster.charges]
    assert labels == ["b0", "a0", "a1", "b1"]
    assert len(cluster) == 4


def test_snapshot_brackets_charges_across_shards():
    cluster = ClusterLedger()
    a = cluster.shard("a")
    b = cluster.shard("b")
    a.charge(CostCategory.SYSCALL, 0.1, label="before")
    mark = cluster.snapshot()
    b.charge(CostCategory.MEMCPY, 0.2, label="inside-b")
    a.charge(CostCategory.TRANSFER, 0.3, label="inside-a")
    fresh = cluster.charges_since(mark)
    assert [charge.label for charge in fresh] == ["inside-b", "inside-a"]


def test_totals_aggregate_across_shards():
    cluster = ClusterLedger()
    a = cluster.shard("a")
    b = cluster.shard("b")
    a.charge(CostCategory.SYSCALL, 0.1, cpu_domain=CpuDomain.KERNEL, nbytes=10, copied=True)
    b.charge(CostCategory.SERIALIZATION, 0.2, nbytes=20)
    cluster.charge(CostCategory.HTTP, 0.3)
    assert cluster.total_seconds() == pytest.approx(0.6)
    assert cluster.seconds(CostCategory.SYSCALL) == pytest.approx(0.1)
    assert cluster.serialization_seconds() == pytest.approx(0.2)
    assert cluster.cpu_seconds(CpuDomain.KERNEL) == pytest.approx(0.1)
    assert cluster.copied_bytes == 10
    assert cluster.reference_bytes == 20
    assert cluster.syscalls == 1
    assert cluster.breakdown() == {
        "syscall": pytest.approx(0.1),
        "serialization": pytest.approx(0.2),
        "http": pytest.approx(0.3),
    }
    assert set(cluster.shards()) == {"a", "b"}


def test_memory_peaks_aggregate_as_per_node_maxima():
    cluster = ClusterLedger()
    a = cluster.shard("a")
    b = cluster.shard("b")
    meter_a = a.meter("a/sandbox", baseline_bytes=100)
    meter_a.allocate(900)   # peak 1000
    meter_a.free(500)
    meter_b = b.meter("b/sandbox")
    meter_b.allocate(50)    # peak 50
    assert cluster.peak_memory_bytes() == 1050
    assert cluster.cluster_shard.peak_memory_bytes() == 0
    assert {name: shard.peak_memory_bytes() for name, shard in cluster.shards().items()} == {
        "a": 1000,
        "b": 50,
    }
    assert set(cluster.meters()) == {"a/sandbox", "b/sandbox"}


def test_shared_clock_gives_one_timeline_in_serial_runs():
    cluster = ClusterLedger()
    a = cluster.shard("a")
    b = cluster.shard("b")
    a.charge(CostCategory.SYSCALL, 0.25)
    charge = b.charge(CostCategory.SYSCALL, 0.25)
    assert charge.timestamp == pytest.approx(0.25)  # saw a's advance
    assert cluster.clock.now == pytest.approx(0.5)


def test_backing_ledger_becomes_the_cluster_shard():
    backing = CostLedger(clock=SimClock(), name="traffic")
    cluster = ClusterLedger(backing=backing)
    backing.charge(CostCategory.HTTP, 0.1)
    cluster.charge(CostCategory.HTTP, 0.2)
    assert cluster.cluster_shard is backing
    assert len(backing) == 2
    assert cluster.total_seconds() == pytest.approx(0.3)


def test_reset_clears_every_shard_and_the_clock():
    cluster = ClusterLedger()
    node = cluster.shard("n1")
    node.charge(CostCategory.SYSCALL, 0.4)
    cluster.charge(CostCategory.HTTP, 0.1)
    cluster.reset()
    assert len(cluster) == 0
    assert cluster.clock.now == 0.0
    assert cluster.total_seconds() == 0.0

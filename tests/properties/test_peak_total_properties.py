"""Property tests: a ledger's running peak total equals the sum of its meters.

``peak_memory_bytes()`` is a running total the meters keep up to date, not a
scan.  Whatever sequence of meter creation, allocation, free, meter reset
and ledger reset runs, it must equal the sum of the peaks of the meters the
ledger still holds — including when a ``Cgroup`` keeps using a meter that a
ledger reset already dropped.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.kernel.cgroups import Cgroup
from repro.sim.ledger import ClusterLedger, CostLedger

MB = 1024 * 1024

step_strategy = st.one_of(
    st.tuples(
        st.just("meter"),
        st.integers(min_value=0, max_value=3),  # shard
        st.integers(min_value=0, max_value=3),  # name
        st.integers(min_value=0, max_value=4 * MB),  # baseline
    ),
    st.tuples(st.just("allocate"), st.integers(min_value=0), st.integers(min_value=0, max_value=8 * MB)),
    st.tuples(st.just("free"), st.integers(min_value=0), st.integers(min_value=0, max_value=8 * MB)),
    st.tuples(st.just("reset_meter"), st.integers(min_value=0)),
    st.tuples(st.just("reset_cgroup"), st.integers(min_value=0)),
    st.tuples(st.just("reset_ledger"), st.integers(min_value=0, max_value=4)),
)


def _run(ledgers, reset_all, steps, check):
    """Apply ``steps``; ``ledgers[i]`` owns meters created on shard ``i``."""
    held = []  # every meter ever handed out, attached or not
    cgroups = []
    for step in steps:
        kind = step[0]
        if kind == "meter":
            _, shard, name, baseline = step
            ledger = ledgers[shard % len(ledgers)]
            meter = ledger.meter("s%d/m%d" % (shard % len(ledgers), name), baseline)
            held.append(meter)
            cgroups.append(Cgroup("cg-%d" % len(cgroups), memory=meter))
        elif not held:
            continue
        elif kind == "allocate":
            held[step[1] % len(held)].allocate(step[2])
        elif kind == "free":
            meter = held[step[1] % len(held)]
            meter.free(min(step[2], meter.current_bytes - meter._baseline))
        elif kind == "reset_meter":
            held[step[1] % len(held)].reset()
        elif kind == "reset_cgroup":
            cgroups[step[1] % len(cgroups)].reset()
        elif step[1] < len(ledgers):
            ledgers[step[1]].reset()
        else:
            reset_all()
        check()


@given(steps=st.lists(step_strategy, max_size=40))
def test_cost_ledger_peak_total_equals_sum_of_meter_peaks(steps):
    ledger = CostLedger()

    def check():
        assert ledger.peak_memory_bytes() == sum(m.peak_bytes for m in ledger.meters().values())
        assert ledger.peak_memory_mb() == ledger.peak_memory_bytes() / MB

    _run([ledger], ledger.reset, steps, check)


@given(
    nodes=st.integers(min_value=1, max_value=3),
    steps=st.lists(step_strategy, max_size=40),
)
def test_cluster_ledger_peak_total_equals_per_shard_sums(nodes, steps):
    cluster = ClusterLedger()
    shards = [cluster.cluster_shard] + [cluster.shard("node-%d" % i) for i in range(nodes)]

    def check():
        by_node = {
            shard.node_name: sum(m.peak_bytes for m in shard.meters().values()) for shard in shards
        }
        for shard in shards:
            assert shard.peak_memory_bytes() == by_node[shard.node_name]
        assert cluster.peak_memory_bytes() == sum(by_node.values())
        assert cluster.peak_memory_bytes() == sum(
            m.peak_bytes for m in cluster.meters().values()
        )

    _run(shards, cluster.reset, steps, check)


def test_meter_dropped_by_ledger_reset_no_longer_counts():
    ledger = CostLedger()
    cgroup = Cgroup("sandbox", memory=ledger.meter("sandbox", baseline_bytes=10))
    cgroup.memory.allocate(90)
    assert ledger.peak_memory_bytes() == 100
    ledger.reset()
    assert ledger.peak_memory_bytes() == 0
    cgroup.memory.allocate(1000)  # the cgroup still holds the dropped meter
    cgroup.reset()
    assert ledger.peak_memory_bytes() == 0
    fresh = ledger.meter("sandbox", baseline_bytes=5)
    assert fresh is not cgroup.memory
    fresh.allocate(20)
    assert ledger.peak_memory_bytes() == 25

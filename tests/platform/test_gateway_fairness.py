"""Fairness invariants of the gateway's per-tenant admission queues."""

import pytest

from repro.platform.cluster import Cluster
from repro.platform.function import FunctionSpec
from repro.platform.gateway import (
    FairnessPolicy,
    FairQueue,
    GatewayError,
    IngressGateway,
    RoutingPolicy,
)
from repro.platform.orchestrator import Orchestrator
from repro.wasm.runtime import RuntimeKind


def _saturated_queue(weights, policy=FairnessPolicy.WFQ, backlog=400, guard=32):
    queue = FairQueue(policy=policy, starvation_guard=guard)
    item = 0
    for tenant, weight in weights.items():
        queue.register_tenant(tenant, weight)
    for _ in range(backlog):
        for tenant in weights:
            queue.enqueue(tenant, item, "req-%d" % item)
            item += 1
    return queue


def _drain(queue, count):
    served = []
    for _ in range(count):
        order = queue.dispatch_order()
        if not order:
            break
        served.append(order[0])
        queue.pop(order[0])
    return served


def test_wfq_dispatch_ratios_converge_to_weights_under_saturation():
    weights = {"a": 3, "b": 1, "c": 2}
    queue = _saturated_queue(weights, backlog=600)
    served = _drain(queue, 600)
    counts = {tenant: served.count(tenant) for tenant in weights}
    total = sum(counts.values())
    for tenant, weight in weights.items():
        share = counts[tenant] / total
        expected = weight / sum(weights.values())
        assert share == pytest.approx(expected, rel=0.05), (tenant, counts)


def test_wfq_never_starves_a_weight_one_tenant():
    # Extreme skew: the guard must bound the weight-1 tenant's wait even
    # though its virtual-time share is 1/101.
    queue = _saturated_queue({"whale": 100, "minnow": 1}, backlog=300, guard=8)
    served = _drain(queue, 200)
    gaps, last = [], -1
    for index, tenant in enumerate(served):
        if tenant == "minnow":
            gaps.append(index - last)
            last = index
    assert gaps, "minnow was never served"
    assert max(gaps) <= 9  # guard of 8 dispatches plus the serving slot


def test_fifo_order_is_tenant_blind_arrival_order():
    queue = FairQueue(policy=FairnessPolicy.FIFO)
    queue.register_tenant("a")
    queue.register_tenant("b")
    queue.enqueue("a", 0, "a0")
    queue.enqueue("b", 1, "b0")
    queue.enqueue("a", 2, "a1")
    served = []
    while queue.total_depth():
        tenant = queue.dispatch_order()[0]
        served.append(queue.pop(tenant))
    assert served == ["a0", "b0", "a1"]


def test_idle_tenant_reenters_at_current_virtual_time():
    # A tenant that was silent while another drained a backlog must not
    # bank credit and monopolise dispatch when it becomes active.
    queue = FairQueue(policy=FairnessPolicy.WFQ)
    queue.register_tenant("busy")
    queue.register_tenant("late")
    for index in range(100):
        queue.enqueue("busy", index, "busy-%d" % index)
    _drain(queue, 50)
    for index in range(100, 110):
        queue.enqueue("late", index, "late-%d" % index)
    served = _drain(queue, 20)
    # Fair alternation, not a run of 10 "late" dispatches.
    assert served.count("late") <= 11
    assert served.count("busy") >= 9


def test_idle_reentry_sheds_stale_skip_count():
    # A tenant whose backlog evaporated (timeouts) must not come back with
    # a near-threshold skip count and jump the starvation guard unearned.
    queue = FairQueue(policy=FairnessPolicy.WFQ, starvation_guard=4)
    queue.register_tenant("a", weight=8)
    queue.register_tenant("b", weight=1)
    for index in range(20):
        queue.enqueue("a", index, "a-%d" % index)
    queue.enqueue("b", 100, "b-0")
    queue.enqueue("b", 101, "b-1")
    queue.pop("b")  # b's finish tag jumps a full 1/weight ahead of a's
    for _ in range(3):
        queue.pop("a")  # b is backlogged and passed over: skipped = 3
    assert queue.cancel("b", 101)  # b's remaining backlog times out
    queue.pop("a")
    queue.enqueue("b", 102, "b-2")  # idle re-entry
    queue.pop("a")
    # With a stale skip count this pop would have pushed b over the guard
    # (3 + 1 >= 4) and promoted it; a fresh backlog starts from zero, so
    # dispatch still goes by virtual time — a's tag is far below b's.
    assert queue.dispatch_order()[0] == "a"


def test_queue_accounting_tracks_drops_timeouts_and_dispatches():
    queue = FairQueue(policy=FairnessPolicy.WFQ)
    queue.register_tenant("t", weight=2)
    assert queue.enqueue("t", 0, "r0", limit=2)
    assert queue.enqueue("t", 1, "r1", limit=2)
    assert not queue.enqueue("t", 2, "r2", limit=2)  # over the bound: dropped
    assert queue.cancel("t", 0)      # queue timeout
    assert not queue.cancel("t", 0)  # second cancel is a no-op
    assert queue.pop("t") == "r1"    # the ghost head is skipped
    stats = queue.stats("t")
    assert (stats.enqueued, stats.dispatched, stats.dropped, stats.timed_out) == (2, 1, 1, 1)
    assert queue.depth("t") == 0
    with pytest.raises(GatewayError):
        queue.pop("t")


def test_queue_rejects_bad_tenants_and_weights():
    queue = FairQueue()
    queue.register_tenant("a")
    with pytest.raises(GatewayError):
        queue.register_tenant("a")
    with pytest.raises(GatewayError):
        queue.register_tenant("b", weight=0)
    with pytest.raises(GatewayError):
        queue.enqueue("ghost", 0, "x")
    with pytest.raises(GatewayError):
        FairQueue(starvation_guard=0)


def _gateway(policy=RoutingPolicy.LEAST_LOADED):
    cluster = Cluster.single_node()
    orchestrator = Orchestrator(cluster)
    return cluster, IngressGateway(orchestrator, policy=policy)


def test_bookkeeping_consistent_across_remove_replica_under_queued_load():
    # Requests stay in flight on other replicas while one is reclaimed; the
    # per-replica counters must stay consistent throughout.
    _, gateway = _gateway()
    spec = FunctionSpec("worker", runtime=RuntimeKind.ROADRUNNER, workflow="wf")
    replicas = gateway.register(spec, replicas=3, charge_cold_start=False)
    gateway.queue.register_tenant("t1")
    for index in range(6):
        gateway.queue.enqueue("t1", index, "req-%d" % index)
    states = gateway.pool_states("worker")
    busy_a = gateway.select_replica("worker", [states[0]])
    busy_b = gateway.select_replica("worker", [states[1]])
    gateway.queue.pop("t1"), gateway.queue.pop("t1")
    # The idle replica can be reclaimed mid-load; the busy ones cannot.
    gateway.remove_replica("worker", replicas[2])
    with pytest.raises(GatewayError):
        gateway.remove_replica("worker", busy_a.deployed)
    in_flight = gateway.in_flight("worker")
    assert in_flight == {replicas[0].name: 1, replicas[1].name: 1}
    assert gateway.total_in_flight("worker") == 2
    gateway.release_state("worker", busy_a)
    gateway.release_state("worker", busy_b)
    served = gateway.served_per_replica("worker")
    assert served == {replicas[0].name: 1, replicas[1].name: 1}
    assert gateway.total_in_flight("worker") == 0
    assert gateway.queue.depth("t1") == 4  # untouched by pool changes


def test_scale_to_can_shrink_idle_pools_to_zero():
    _, gateway = _gateway()
    spec = FunctionSpec("worker", runtime=RuntimeKind.ROADRUNNER, workflow="wf")
    replicas = gateway.register(spec, replicas=3, charge_cold_start=False)
    busy = gateway.select_replica("worker", gateway.pool_states("worker"))
    with pytest.raises(GatewayError):
        gateway.remove_replica("worker", busy.deployed)  # it has a request in flight
    for replica in replicas:
        if replica is not busy.deployed:
            gateway.remove_replica("worker", replica)
    assert gateway.pool_size("worker") == 1
    assert gateway.replicas("worker") == [busy.deployed]
    gateway.release_state("worker", busy)
    gateway.remove_replica("worker", busy.deployed)
    assert gateway.pool_size("worker") == 0


def test_drain_evacuates_backlog_without_touching_stats():
    # Federation failover path: a failed region's backlog is evacuated
    # verbatim — no dispatch/drop/timeout accounting happens here, the
    # surviving region re-admits and accounts each request itself.
    queue = FairQueue(policy=FairnessPolicy.WFQ)
    queue.register_tenant("a", 2)
    for index in range(5):
        queue.enqueue("a", index, "req-%d" % index)
    drained = queue.drain("a")
    assert [item_id for item_id, _ in drained] == [0, 1, 2, 3, 4]
    assert [item for _, item in drained] == ["req-%d" % i for i in range(5)]
    stats = queue.stats("a")
    assert stats.enqueued == 5
    assert stats.dispatched == 0
    assert stats.dropped == 0
    assert stats.timed_out == 0
    assert queue.depth("a") == 0
    assert queue.drain("a") == []  # idempotent on an empty queue


def test_drain_skips_cancelled_ghosts():
    queue = FairQueue(policy=FairnessPolicy.FIFO)
    queue.register_tenant("a")
    for index in range(4):
        queue.enqueue("a", index, "req-%d" % index)
    assert queue.cancel("a", 1)
    assert queue.cancel("a", 3)
    drained = queue.drain("a")
    assert [item_id for item_id, _ in drained] == [0, 2]


def test_drain_requires_a_registered_tenant():
    queue = FairQueue()
    with pytest.raises(GatewayError):
        queue.drain("ghost")

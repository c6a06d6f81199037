"""Unit tests: cost-weighted WFQ tags, EDF classes, and queue-state fixes."""

import pytest

from repro.platform.gateway import (
    FairnessPolicy,
    FairQueue,
    GatewayError,
    IntraTenantOrder,
)


def _drain(queue, count=10**9):
    served = []
    for _ in range(count):
        order = queue.dispatch_order()
        if not order:
            break
        served.append((order[0], queue.pop(order[0])))
    return served


# -- dispatch tie-breaking (regression) ---------------------------------------------


@pytest.mark.parametrize("policy", [FairnessPolicy.WFQ, FairnessPolicy.WFQ_COST])
def test_equal_virtual_tags_break_by_registration_order(policy):
    # Fresh tenants with equal weights all sit at tag 0: the dispatch order
    # must be their registration order, whatever name ordering would say.
    queue = FairQueue(policy=policy)
    for tenant in ("zeta", "alpha", "mid"):
        queue.register_tenant(tenant)
        queue.enqueue(tenant, hash(tenant) & 0xFFFF, tenant + "-0")
    assert queue.dispatch_order() == ["zeta", "alpha", "mid"]
    # After one full round everyone is back at an equal tag: same order.
    for tenant in ("zeta", "alpha", "mid"):
        queue.enqueue(tenant, (hash(tenant) & 0xFFFF) + 1, tenant + "-1")
    served = [tenant for tenant, _ in _drain(queue, 3)]
    assert served == ["zeta", "alpha", "mid"]


def test_tie_break_is_registration_not_insertion_alphabetical():
    # The same tenants registered in the opposite order flip the tie-break:
    # the order is a pure function of registration history.
    first = FairQueue(policy=FairnessPolicy.WFQ)
    second = FairQueue(policy=FairnessPolicy.WFQ)
    for tenant in ("a", "b"):
        first.register_tenant(tenant)
    for tenant in ("b", "a"):
        second.register_tenant(tenant)
    for queue in (first, second):
        queue.enqueue("a", 0, "a0")
        queue.enqueue("b", 1, "b0")
    assert first.dispatch_order() == ["a", "b"]
    assert second.dispatch_order() == ["b", "a"]


# -- cancelled heads (regression) ---------------------------------------------------


def test_cancelled_head_is_pruned_eagerly():
    queue = FairQueue(policy=FairnessPolicy.FIFO)
    queue.register_tenant("t")
    queue.enqueue("t", 0, "r0")
    queue.enqueue("t", 1, "r1")
    assert queue.cancel("t", 0)
    # The ghost must be gone from the structure, not merely de-listed.
    assert len(queue._tenants["t"].items) == 1
    assert queue.pop("t") == "r1"


def test_cancelled_head_does_not_skew_the_next_cost_tag():
    # wfq-cost advances the tag by the *popped* entry's cost snapshot.  A
    # cancelled head with a huge snapshot must contribute nothing: the next
    # pop advances by the live entry's own cost.
    queue = FairQueue(policy=FairnessPolicy.WFQ_COST)
    queue.register_tenant("t")
    queue.register_tenant("other")
    queue.record_service_cost("t", 100.0)
    queue.enqueue("t", 0, "expensive")     # snapshots cost 100.0
    queue.record_service_cost("t", 0.5)    # EWMA decays toward 0.5
    cheap_cost = queue.cost_estimate("t")
    queue.enqueue("t", 1, "cheap")         # snapshots the decayed estimate
    assert queue.cancel("t", 0)
    before = queue._tenants["t"].finish_tag
    assert queue.pop("t") == "cheap"
    assert queue._tenants["t"].finish_tag == pytest.approx(before + cheap_cost)


def test_cancelling_the_edf_head_reorders_to_next_live_deadline():
    queue = FairQueue(policy=FairnessPolicy.FIFO, intra=IntraTenantOrder.EDF)
    queue.register_tenant("t")
    queue.enqueue("t", 0, "urgent", deadline=1.0)
    queue.enqueue("t", 1, "later", deadline=5.0)
    queue.enqueue("t", 2, "batch")  # no deadline: dispatches last
    assert queue.cancel("t", 0)
    assert queue.pop("t") == "later"
    assert queue.pop("t") == "batch"


# -- EDF ordering -------------------------------------------------------------------


def test_edf_orders_by_priority_then_deadline_then_arrival():
    queue = FairQueue(policy=FairnessPolicy.FIFO, intra=IntraTenantOrder.EDF)
    queue.register_tenant("t")
    queue.enqueue("t", 0, "p1-early", priority=1, deadline=2.0)
    queue.enqueue("t", 1, "p0-late", priority=0, deadline=9.0)
    queue.enqueue("t", 2, "p0-early", priority=0, deadline=3.0)
    queue.enqueue("t", 3, "p0-none", priority=0)
    queue.enqueue("t", 4, "p0-early-second", priority=0, deadline=3.0)
    served = [item for _, item in _drain(queue)]
    assert served == ["p0-early", "p0-early-second", "p0-late", "p0-none", "p1-early"]


def test_fifo_intra_order_ignores_priorities_and_deadlines():
    queue = FairQueue(policy=FairnessPolicy.FIFO, intra=IntraTenantOrder.FIFO)
    queue.register_tenant("t")
    queue.enqueue("t", 0, "first", priority=9, deadline=99.0)
    queue.enqueue("t", 1, "second", priority=0, deadline=0.5)
    assert [item for _, item in _drain(queue)] == ["first", "second"]


def test_global_fifo_uses_the_edf_heads_arrival_order():
    # With EDF inside tenants, global FIFO compares the arrival seq of the
    # entry each tenant would dispatch next.
    queue = FairQueue(policy=FairnessPolicy.FIFO, intra=IntraTenantOrder.EDF)
    queue.register_tenant("a")
    queue.register_tenant("b")
    queue.enqueue("a", 0, "a-batch", priority=1)          # seq 0
    queue.enqueue("b", 1, "b-batch", priority=1)          # seq 1
    queue.enqueue("a", 2, "a-urgent", priority=0)         # seq 2: a's head
    # a's head (seq 2) arrived after b's head (seq 1): b goes first.
    assert queue.dispatch_order() == ["b", "a"]


# -- cost-weighted tags -------------------------------------------------------------


def test_cost_estimate_is_an_ewma_of_recorded_services():
    queue = FairQueue(policy=FairnessPolicy.WFQ_COST)
    queue.register_tenant("t")
    assert queue.cost_estimate("t") is None
    queue.record_service_cost("t", 2.0)
    assert queue.cost_estimate("t") == pytest.approx(2.0)
    queue.record_service_cost("t", 4.0)
    assert queue.cost_estimate("t") == pytest.approx(0.3 * 4.0 + 0.7 * 2.0)
    with pytest.raises(GatewayError):
        queue.record_service_cost("t", -1.0)


def test_zero_duration_service_cost_clamps_instead_of_crashing():
    # Regression: a zero-cost request (empty payload / free cost model)
    # used to raise GatewayError mid-dispatch.  It now clamps to a small
    # epsilon so the EWMA stays positive and wfq-cost tags keep advancing.
    queue = FairQueue(policy=FairnessPolicy.WFQ_COST)
    queue.register_tenant("t")
    queue.record_service_cost("t", 0.0)
    assert queue.cost_estimate("t") == pytest.approx(FairQueue.MIN_SERVICE_COST_S)
    # Subsequent real measurements blend in normally.
    queue.record_service_cost("t", 2.0)
    assert queue.cost_estimate("t") == pytest.approx(0.6, rel=1e-6)


def test_cost_weighted_tags_equalise_service_time_not_request_count():
    # Tenant "heavy" costs 10x per request.  Equal weights: over a drain,
    # "light" should be dispatched ~10x as often (equal service seconds).
    queue = FairQueue(policy=FairnessPolicy.WFQ_COST, starvation_guard=1000)
    queue.register_tenant("light")
    queue.register_tenant("heavy")
    queue.record_service_cost("light", 0.1)
    queue.record_service_cost("heavy", 1.0)
    item = 0
    for _ in range(220):
        queue.enqueue("light", item, "l")
        item += 1
    for _ in range(40):
        queue.enqueue("heavy", item, "h")
        item += 1
    served = [tenant for tenant, _ in _drain(queue, 110)]
    counts = {name: served.count(name) for name in ("light", "heavy")}
    assert counts["light"] / max(1, counts["heavy"]) == pytest.approx(10.0, rel=0.15)


def test_cold_tenant_snapshots_the_fleet_mean_cost_not_a_unitless_one():
    # A tenant with no measurements must not pay 1.0 (a unit-less constant)
    # against peers whose estimates are in (milli)seconds — that would
    # debit the newcomer hundreds of requests per dispatch.  It pays the
    # mean of the known estimates instead.
    queue = FairQueue(policy=FairnessPolicy.WFQ_COST)
    queue.register_tenant("warm")
    queue.register_tenant("warmer")
    queue.register_tenant("cold")
    queue.record_service_cost("warm", 0.004)
    queue.record_service_cost("warmer", 0.008)
    queue.enqueue("cold", 0, "c0")
    queue.pop("cold")
    assert queue._tenants["cold"].finish_tag == pytest.approx(0.006)
    # Before ANY measurement exists, the neutral unit cost applies.
    fresh = FairQueue(policy=FairnessPolicy.WFQ_COST)
    fresh.register_tenant("only")
    fresh.enqueue("only", 0, "r0")
    fresh.pop("only")
    assert fresh._tenants["only"].finish_tag == pytest.approx(1.0)


def test_plain_wfq_still_advances_one_unit_regardless_of_recorded_cost():
    queue = FairQueue(policy=FairnessPolicy.WFQ)
    queue.register_tenant("t", weight=2)
    queue.record_service_cost("t", 42.0)
    queue.enqueue("t", 0, "r0")
    queue.pop("t")
    assert queue._tenants["t"].finish_tag == pytest.approx(0.5)  # 1/weight

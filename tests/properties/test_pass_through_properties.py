"""Property tests: :meth:`FairQueue.pass_through` is an enqueue plus a pop.

The runtime serves a request that meets an empty queue and a free replica
without putting it on the heap; the queue accounts it with one
``pass_through`` call.  After any history that leaves the queue empty, that
call must leave the queue exactly as ``enqueue`` followed by ``pop`` (or,
for a shed request, ``shed_head``) would — stats, tags, skip counters, cost
estimates, virtual time and depth — and the two queues must then behave
alike under any further operations.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.gateway import FairnessPolicy, FairQueue, GatewayError, IntraTenantOrder

TENANTS = ("a", "b", "c")

history_op = st.tuples(
    st.sampled_from(("enqueue", "pop", "cancel", "shed_head", "cost")),
    st.sampled_from(TENANTS),
    st.integers(min_value=0, max_value=30),
)


def _apply(queue, ops, next_id):
    """Replay ``ops``; return what each observable step produced."""
    seen = []
    for op, tenant, value in ops:
        if op == "enqueue":
            item_id = next_id[0]
            next_id[0] += 1
            seen.append(
                queue.enqueue(tenant, item_id, item_id, limit=5, priority=value % 3,
                              deadline=float(value) if value % 2 else None)
            )
        elif op == "cancel":
            seen.append(queue.cancel(tenant, value))
        elif op == "cost":
            queue.record_service_cost(tenant, value / 1000.0)
        elif queue.depth(tenant):
            seen.append(getattr(queue, op)(tenant))
        seen.append(queue.dispatch_order())
    return seen


def _empty(queue, shed_rest):
    """Empty every tenant's queue by popping (or shedding) what is left."""
    while queue.total_depth():
        tenant = queue.dispatch_order()[0]
        if shed_rest:
            queue.shed_head(tenant)
        else:
            queue.pop(tenant)


def _state(queue):
    return (
        queue.all_stats(),
        {
            name: (tenant.finish_tag, tenant.skipped, tenant.cost_estimate)
            for name, tenant in queue._tenants.items()
        },
        queue._virtual,
        queue.total_depth(),
    )


@given(
    history=st.lists(history_op, max_size=60),
    shed_rest=st.booleans(),
    policy=st.sampled_from(list(FairnessPolicy)),
    intra=st.sampled_from(list(IntraTenantOrder)),
    tenant=st.sampled_from(TENANTS),
    shed=st.booleans(),
    suffix=st.lists(history_op, max_size=30),
)
@settings(max_examples=300, deadline=None)
def test_pass_through_equals_enqueue_then_pop(
    history, shed_rest, policy, intra, tenant, shed, suffix
):
    queue = FairQueue(policy=policy, intra=intra)
    for weight, name in enumerate(TENANTS, start=1):
        queue.register_tenant(name, weight)
    next_id = [0]
    _apply(queue, history, next_id)
    _empty(queue, shed_rest)
    passed, reference = queue, copy.deepcopy(queue)

    passed.pass_through(tenant, shed=shed)
    reference.enqueue(tenant, -1, -1)
    if shed:
        assert reference.shed_head(tenant) == -1
    else:
        assert reference.pop(tenant) == -1
    assert _state(passed) == _state(reference)

    # Observationally the same queue from here on, whatever comes next.
    assert _apply(passed, suffix, [next_id[0]]) == _apply(reference, suffix, [next_id[0]])
    assert _state(passed) == _state(reference)


@pytest.mark.parametrize("policy", list(FairnessPolicy))
def test_pass_through_raises_on_a_non_empty_queue(policy):
    queue = FairQueue(policy=policy)
    for name in TENANTS:
        queue.register_tenant(name)
    queue.enqueue("b", 1, "waiting")
    before = _state(queue)
    for shed in (False, True):
        with pytest.raises(GatewayError, match="empty queue"):
            queue.pass_through("a", shed=shed)
    assert _state(queue) == before
    with pytest.raises(GatewayError, match="not registered"):
        FairQueue().pass_through("nobody")

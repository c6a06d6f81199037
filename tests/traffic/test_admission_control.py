"""Hard-deadline admission control: shedding at dispatch time.

A class with ``hard=True`` opts out of being served late: once a queued
request's deadline can no longer be met at dispatch time, the gateway sheds
it (counted as ``shed`` per class and per tenant) instead of burning a
replica on output nobody can use.
"""

import pytest

from repro.platform.gateway import FairnessPolicy, FairQueue, GatewayError
from repro.traffic.arrivals import Request
from repro.traffic.classes import RequestClass, RequestClassError, assign_classes, parse_classes
from repro.traffic.engine import TrafficConfig, TrafficEngine
from repro.traffic.slo import RequestOutcome


def test_hard_class_requires_a_deadline():
    with pytest.raises(RequestClassError):
        RequestClass(name="hard-no-deadline", hard=True)


def test_parse_classes_reads_the_hard_flag():
    classes = parse_classes(
        '[{"name": "rt", "deadline": 0.5, "hard": true}, {"name": "batch"}]'
    )
    assert classes[0].hard is True
    assert classes[1].hard is False


def test_assign_classes_stamps_hard_onto_requests():
    requests = [
        Request(request_id=i, arrival_s=float(i), function="app", payload_bytes=1024)
        for i in range(20)
    ]
    stamped = assign_classes(
        requests, [RequestClass(name="rt", deadline_s=1.0, hard=True)], seed=3
    )
    assert all(request.hard for request in stamped)
    assert all(request.deadline_s == request.arrival_s + 1.0 for request in stamped)


def test_fair_queue_peek_and_shed_head():
    queue = FairQueue(policy=FairnessPolicy.WFQ)
    queue.register_tenant("t1", weight=1)
    queue.enqueue("t1", 1, "first")
    queue.enqueue("t1", 2, "second")
    assert queue.peek("t1") == "first"
    assert queue.shed_head("t1") == "first"
    assert queue.stats("t1").shed == 1
    assert queue.stats("t1").dispatched == 0
    # Shedding advances no WFQ tag: the next pop is the tenant's first debit.
    assert queue.pop("t1") == "second"
    assert queue.depth("t1") == 0
    with pytest.raises(GatewayError):
        queue.peek("t1")
    with pytest.raises(GatewayError):
        queue.shed_head("t1")


def _overloaded_run(hard: bool, deadline_s: float):
    """One replica, no scaling, a burst it cannot absorb."""
    requests = [
        Request(
            request_id=i,
            arrival_s=0.0001 * i,
            function="app",
            payload_bytes=256 * 1024,
        )
        for i in range(40)
    ]
    classed = assign_classes(
        requests,
        [RequestClass(name="rt", deadline_s=deadline_s, hard=hard)],
        seed=0,
    )
    from repro.traffic.autoscaler import Autoscaler, NoScalingPolicy

    engine = TrafficEngine(
        "roadrunner-user",
        autoscaler=Autoscaler(NoScalingPolicy(), min_replicas=1, max_replicas=1),
        config=TrafficConfig(nodes=1, initial_replicas=1, queue_timeout_s=120.0),
    )
    summary = engine.run(classed, pattern="burst")
    return summary, engine.records


def test_unmeetable_hard_deadlines_are_shed_not_served_late():
    # Calibrate from the soft run: its median latency splits the backlog, so
    # the hard run must shed the tail and serve the head whatever the cost
    # model's cold-start and service times are.
    soft_summary, _ = _overloaded_run(hard=False, deadline_s=0.001)
    deadline = soft_summary.latency.p50_s
    hard_summary, records = _overloaded_run(hard=True, deadline_s=deadline)

    # The soft run serves everything, much of it past its deadline.
    assert soft_summary.shed == 0
    assert soft_summary.completed == soft_summary.offered
    assert soft_summary.deadline_met_ratio < 1.0

    # The hard run sheds exactly the requests that could not make it, and
    # every request it *does* serve completes within its deadline.
    assert hard_summary.shed > 0
    assert hard_summary.completed + hard_summary.shed == hard_summary.offered
    completed = [r for r in records if r.outcome is RequestOutcome.COMPLETED]
    assert completed and all(r.completion_s <= r.deadline_s for r in completed)
    shed = [r for r in records if r.outcome is RequestOutcome.SHED]
    assert len(shed) == hard_summary.shed
    assert all(r.dispatch_s is None and r.completion_s is None for r in shed)

    # Per-class accounting carries the shed count and the deadline misses.
    (rt,) = hard_summary.classes
    assert rt.shed == hard_summary.shed
    assert rt.deadline_total == hard_summary.offered
    assert rt.deadline_met == hard_summary.completed
    assert hard_summary.completed + hard_summary.shed == hard_summary.offered

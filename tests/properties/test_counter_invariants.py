"""Property tests: the running counters behind the least-loaded signal.

:class:`FairQueue` keeps a count of live items across tenants and
:class:`IngressGateway` a total of requests in flight across pools, so a
region's load reads in O(1).  Each counter must equal the scan it replaced
after any sequence of the operations that change it, and the federation's
``load()`` must equal the old scan formula at every router decision.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.cluster import Cluster
from repro.platform.function import FunctionSpec
from repro.platform.gateway import (
    FairnessPolicy,
    FairQueue,
    IngressGateway,
    IntraTenantOrder,
    RoutingPolicy,
)
from repro.platform.orchestrator import Orchestrator
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.cluster_runtime import ClusterRuntime
from repro.traffic.engine import TrafficConfig
from repro.traffic.federation import ClusterSpec, FederatedTrafficEngine
from repro.traffic.tenants import TenantSpec
from repro.wasm.runtime import RuntimeKind

TENANTS = ("a", "b", "c")

queue_op = st.tuples(
    st.sampled_from(("enqueue", "cancel", "pop", "shed_head", "drain")),
    st.sampled_from(TENANTS),
    st.integers(min_value=0, max_value=40),  # item id (enqueue/cancel)
)


@given(
    ops=st.lists(queue_op, max_size=80),
    policy=st.sampled_from(list(FairnessPolicy)),
    intra=st.sampled_from(list(IntraTenantOrder)),
)
@settings(max_examples=150, deadline=None)
def test_fair_queue_live_count_equals_sum_of_depths(ops, policy, intra):
    queue = FairQueue(policy=policy, intra=intra)
    for weight, tenant in enumerate(TENANTS, start=1):
        queue.register_tenant(tenant, weight)
    next_id = {tenant: 1000 for tenant in TENANTS}
    for op, tenant, item in ops:
        if op == "enqueue":
            item_id = next_id[tenant]
            next_id[tenant] += 1
            queue.enqueue(tenant, item_id, item_id, limit=6, priority=item % 3,
                          deadline=float(item) if item % 2 else None)
        elif op == "cancel":
            queue.cancel(tenant, 1000 + item)
        elif op == "drain":
            queue.drain(tenant)
        elif queue.depth(tenant):
            getattr(queue, op)(tenant)
        depths = {name: queue.depth(name) for name in TENANTS}
        assert queue.total_depth() == sum(depths.values())
        order = queue.dispatch_order()
        assert sorted(order) == sorted(name for name, depth in depths.items() if depth)
        for name in order:  # every tenant offered for dispatch has a live head
            assert queue.is_queued(name, queue.peek(name))  # items are their ids


gateway_op = st.tuples(
    st.sampled_from(("select", "route_among", "release_state", "release", "remove")),
    st.sampled_from(("f", "g")),
    st.integers(min_value=0, max_value=3),
)


@given(
    ops=st.lists(gateway_op, max_size=60),
    policy=st.sampled_from(list(RoutingPolicy)),
)
@settings(max_examples=100, deadline=None)
def test_gateway_in_flight_total_equals_sum_over_pools(ops, policy):
    gateway = IngressGateway(Orchestrator(Cluster.single_node()), policy=policy)
    for function in ("f", "g"):
        gateway.register(
            FunctionSpec(function, runtime=RuntimeKind.ROADRUNNER, workflow="wf"),
            replicas=4,
            charge_cold_start=False,
        )
    for op, function, pick in ops:
        states = gateway.pool_states(function) if gateway.pool_size(function) else []
        busy = [state for state in states if state.in_flight]
        if op == "select" and states:
            gateway.select_replica(function, states[: pick + 1])
        elif op == "route_among" and states:
            gateway.route_among(function, [state.deployed for state in states[: pick + 1]])
        elif op == "release_state" and busy:
            gateway.release_state(function, busy[pick % len(busy)])
        elif op == "release" and busy:
            gateway.release(function, busy[pick % len(busy)].deployed)
        elif op == "remove" and len(states) > 1:
            idle = [state for state in states if not state.in_flight]
            if idle:
                gateway.remove_replica(function, idle[pick % len(idle)].deployed)
        expected = sum(
            gateway.total_in_flight(name) for name in ("f", "g") if gateway.pool_size(name)
        )
        assert gateway.in_flight_total() == expected


def _scan_load(runtime):
    """The least-loaded signal as a full scan over tenants and replicas."""
    gateway = runtime.gateway
    return sum(
        gateway.queue.depth(state.name)
        + (gateway.total_in_flight(state.function) if state.replicas else 0)
        for state in runtime.states
    )


def test_federation_load_matches_the_scan_at_every_router_decision(monkeypatch):
    counter_load, fail = ClusterRuntime.load, ClusterRuntime.fail
    seen = {}
    evacuated = []

    def checked_load(runtime):
        value = counter_load(runtime)
        assert value == _scan_load(runtime)
        seen[runtime.region] = runtime
        return value

    def counted_fail(runtime, now):
        requests = fail(runtime, now)
        evacuated.append(len(requests))
        return requests

    monkeypatch.setattr(ClusterRuntime, "load", checked_load)
    monkeypatch.setattr(ClusterRuntime, "fail", counted_fail)
    regions = ("us", "eu", "ap")
    tenants = [
        TenantSpec(
            name="%s-app" % region,
            mode="roadrunner-user",
            arrivals=PoissonArrivals(
                rate_rps=200.0, duration_s=4.0, payload_mb=4.0, seed=index + 1
            ),
        )
        for index, region in enumerate(regions)
    ]
    engine = FederatedTrafficEngine(
        tenants,
        [
            ClusterSpec(region=region, nodes=1, initial_replicas=1, tenants=("%s-app" % region,))
            for region in regions
        ],
        config=TrafficConfig(retain_records=False, max_queue=8),
        router="least-loaded",
        wan_rtt_s=0.02,
        fail_at={"us": 1.0},  # before the autoscalers catch up: queues are full
    )
    summary = engine.run()
    assert summary.failed_regions == ("us",)
    assert evacuated[0] > 0 and summary.router.failovers >= evacuated[0]
    assert sorted(seen) == sorted(regions)
    for runtime in seen.values():
        assert runtime.load() == 0 == _scan_load(runtime)

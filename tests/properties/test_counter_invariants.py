"""Property tests: the running counters and indexes behind O(1) dispatch.

:class:`FairQueue` keeps a count of live items across tenants and
:class:`IngressGateway` a total of requests in flight across pools, so a
region's load reads in O(1).  Each counter must equal the scan it replaced
after any sequence of the operations that change it, and the federation's
``load()`` must equal the old scan formula at every router decision.

:class:`ClusterRuntime` keeps a per-tenant index of free replicas, so a
dispatch attempt does not scan the pool: the candidates it offers the load
balancer must equal the pool scan they replaced at every dispatch attempt,
and the ``warmth`` router's probe must equal its scan at every decision.
Every run must also end back at baseline: no node busy, nothing in flight
or queued, and each replica in exactly one of its tenant's free index or
pending list.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.middleware import build_pipeline
from repro.platform.cluster import Cluster
from repro.platform.function import FunctionSpec
from repro.platform.gateway import (
    FairnessPolicy,
    FairQueue,
    GatewayError,
    IngressGateway,
    IntraTenantOrder,
)
from repro.platform.orchestrator import Orchestrator
from repro.traffic.arrivals import BurstyArrivals, PoissonArrivals
from repro.traffic.autoscaler import Autoscaler, TargetConcurrencyPolicy
from repro.traffic.cluster_runtime import ClusterRuntime
from repro.traffic.engine import MultiTenantTrafficEngine, TrafficConfig
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
    st.sampled_from(("select", "release_state", "release_stale", "remove", "register")),
    st.sampled_from(("f", "g")),
    st.integers(min_value=0, max_value=3),
)


@given(
    ops=st.lists(gateway_op, max_size=60),
)
@settings(max_examples=100, deadline=None)
def test_gateway_in_flight_total_equals_sum_over_pools(ops):
    gateway = IngressGateway(Orchestrator(Cluster.single_node()))
    specs = {
        function: FunctionSpec(function, runtime=RuntimeKind.ROADRUNNER, workflow="wf")
        for function in ("f", "g")
    }
    for spec in specs.values():
        gateway.register(spec, replicas=4, charge_cold_start=False)
    retired = {"f": [], "g": []}
    for op, function, pick in ops:
        states = gateway.pool_states(function) if gateway.pool_size(function) else []
        busy = [state for state in states if state.in_flight]
        if op == "select" and states:
            gateway.select_replica(function, states[: pick + 1])
        elif op == "release_state" and busy:
            gateway.release_state(function, busy[pick % len(busy)])
        elif op == "release_stale" and retired[function]:
            # A handle whose replica left the pool is refused, untouched.
            with pytest.raises(GatewayError):
                gateway.release_state(function, retired[function][pick % len(retired[function])])
        elif op == "remove" and len(states) > 1:
            idle = [state for state in states if not state.in_flight]
            if idle:
                victim = idle[pick % len(idle)]
                gateway.remove_replica(function, victim.deployed)
                retired[function].append(victim)
        elif op == "register":
            gateway.register(specs[function], replicas=1 + pick % 2, charge_cold_start=False)
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
        _assert_back_to_baseline(runtime)


def _scan_candidates(runtime, state, now):
    """A dispatch attempt's candidates as the full pool scan it replaced.

    Busy slots per node are summed from every replica's in-flight count,
    so the runtime's running ``node_busy`` is checked along the way.
    """
    cluster = runtime.cluster
    cores = {name: cluster.node(name).cores for name in cluster.nodes}
    busy = {name: 0 for name in cluster.nodes}
    for other in runtime.states:
        for replica in other.replicas:
            busy[replica.node] += replica.gw_state.in_flight
    limit = runtime.config.per_replica_concurrency
    return [
        replica
        for replica in state.replicas
        if replica.ready_at <= now
        and replica.gw_state.in_flight < limit
        and busy[replica.node] < cores[replica.node]
    ]


def _check_candidates_at_every_dispatch(mp, seen):
    """Instrument every runtime built under ``mp``: before each dispatch
    decision (every queue-depth probe and dispatch-order pass), each
    tenant's indexed candidates must equal the scan, element for element."""
    build = ClusterRuntime.__init__

    def instrumented(runtime, **kwargs):
        build(runtime, **kwargs)
        queue = runtime.gateway.queue

        def check():
            now = runtime.loop.now
            for state in runtime.states:
                assert list(map(id, runtime.candidates(state, now))) == list(
                    map(id, _scan_candidates(runtime, state, now))
                )
            seen["checks"] += 1

        def probed(method):
            def wrapper(*args, **kwargs):
                check()
                return method(*args, **kwargs)

            return wrapper

        def counted(name, method):
            def wrapper(*args, **kwargs):
                seen[name] += 1
                return method(*args, **kwargs)

            return wrapper

        queue.total_depth = probed(queue.total_depth)
        queue.dispatch_order = probed(queue.dispatch_order)
        queue.pass_through = counted("pass_through", queue.pass_through)
        queue.pop = counted("pop", queue.pop)
        seen["runtimes"].append(runtime)

    mp.setattr(ClusterRuntime, "__init__", instrumented)


def _index_run(concurrency, oversubscription, hedge, memory, federated, seed):
    """One small run over every mechanism that moves a replica in or out
    of the free index: warm-up, selection (hedged too), release, keep-alive
    reclaim, OOM eviction and, federated, a regional failure."""
    names = ("heavy", "light")
    tenants = [
        TenantSpec(
            name="heavy",
            mode="runc-http",  # the container baseline RSS: the evictor's prey
            arrivals=BurstyArrivals(
                on_rate_rps=80.0, duration_s=5.0, on_s=1.0, off_s=1.5,
                function="heavy", payload_mb=0.5, seed=seed,
            ),
        ),
        TenantSpec(
            name="light",
            mode="roadrunner-user",
            arrivals=PoissonArrivals(
                rate_rps=60.0, duration_s=5.0, function="light", payload_mb=0.5,
                seed=seed + 1,
            ),
        ),
    ]
    config = TrafficConfig(
        nodes=2,
        per_replica_concurrency=concurrency,
        initial_replicas=2,
        node_memory_mb=60.0 if memory else 0.0,
        queue_timeout_s=2.0,
        retain_records=False,
    )
    autoscaler = lambda: Autoscaler(  # noqa: E731
        TargetConcurrencyPolicy(1.0), keep_alive_s=0.5, control_interval_s=0.25
    )

    def pipeline(region=""):
        if not hedge:
            return None
        return build_pipeline(
            ["hedge"], hedge_budget_s=1e-6, hedge_straggler_prob=0.3,
            hedge_straggler_factor=8.0, hedge_seed=seed,
        )

    if not federated:
        return MultiTenantTrafficEngine(
            tenants, config=config, autoscaler_factory=autoscaler,
            oversubscription=oversubscription, middleware=pipeline(),
        ).run()
    return FederatedTrafficEngine(
        tenants,
        [
            ClusterSpec(region="us", nodes=1, tenants=names),
            ClusterSpec(region="eu", nodes=1),
            ClusterSpec(region="ap", nodes=2),
        ],
        config=config,
        autoscaler_factory=autoscaler,
        oversubscription=oversubscription,
        router="least-loaded",
        wan_rtt_s=0.02,
        middleware_factory=pipeline if hedge else None,
        fail_at={"us": 2.0},
    ).run()


def _new_seen():
    return {"checks": 0, "pass_through": 0, "pop": 0, "runtimes": []}


def _assert_back_to_baseline(runtime):
    """A finished run leaves no work anywhere: every node idle, nothing in
    flight or queued, and every replica idle in exactly one of its
    tenant's free index or pending list."""
    assert all(busy == 0 for busy in runtime.node_busy.values()), runtime.node_busy
    assert runtime.gateway.in_flight_total() == 0
    assert runtime.gateway.queue.total_depth() == 0
    for state in runtime.states:
        free = list(map(id, state.free))
        pending = list(map(id, state.pending))
        assert len(set(free)) == len(free) and len(set(pending)) == len(pending)
        assert sorted(free + pending) == sorted(map(id, state.replicas))


@given(
    concurrency=st.integers(min_value=1, max_value=3),
    oversubscription=st.sampled_from((1.0, 2.0)),
    hedge=st.booleans(),
    memory=st.booleans(),
    federated=st.booleans(),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=40, deadline=None)
def test_free_index_equals_the_pool_scan_at_every_dispatch(
    concurrency, oversubscription, hedge, memory, federated, seed
):
    seen = _new_seen()
    with pytest.MonkeyPatch.context() as mp:
        _check_candidates_at_every_dispatch(mp, seen)
        _index_run(concurrency, oversubscription, hedge, memory, federated, seed)
    assert seen["checks"] > 0
    for runtime in seen["runtimes"]:
        _assert_back_to_baseline(runtime)


def test_the_index_property_run_reaches_every_index_transition():
    """The configuration space above really drives each index move."""
    seen = _new_seen()
    with pytest.MonkeyPatch.context() as mp:
        _check_candidates_at_every_dispatch(mp, seen)
        _index_run(2, 2.0, True, True, False, 3)
        _index_run(1, 1.0, True, False, True, 5)
    single, *regions = seen["runtimes"]
    assert single.evictions  # OOM evictions dropped indexed replicas
    assert all(runtime.gateway.scale_downs for runtime in (single, regions[0]))
    assert regions[0].halted  # the failed region kept draining its index
    assert seen["pass_through"] > 0 and seen["pop"] > 0  # both admission paths
    assert all(
        runtime.middleware_stats["hedge"].get("fired", 0) > 0
        for runtime in (single, regions[0])
    )
    for runtime in seen["runtimes"]:  # every replica ends idle: free or pending
        _assert_back_to_baseline(runtime)
        for state in runtime.states:
            pending = set(map(id, state.pending))
            assert list(map(id, state.free)) == [
                id(replica) for replica in state.replicas if id(replica) not in pending
            ]


def _scan_warm_ready(runtime, tenant, now):
    """The ``warmth`` router's probe as the pool scan it replaced."""
    state = runtime.by_tenant[tenant]
    limit = runtime.config.per_replica_concurrency
    return sum(
        1
        for replica in state.replicas
        if replica.ready_at <= now and replica.gw_state.in_flight < limit
    )


def _warmth_federation(seed):
    regions = ("us", "eu", "ap")
    tenants = [
        TenantSpec(
            name="%s-app" % region,
            mode="roadrunner-user",
            arrivals=BurstyArrivals(
                on_rate_rps=400.0, duration_s=6.0, on_s=1.0, off_s=1.0,
                payload_mb=8.0, seed=seed * 10 + index,
            ),
        )
        for index, region in enumerate(regions)
    ]
    return FederatedTrafficEngine(
        tenants,
        [
            ClusterSpec(region=region, nodes=1, tenants=("%s-app" % region,))
            for region in regions
        ],
        config=TrafficConfig(
            retain_records=False, per_replica_concurrency=2, initial_replicas=1
        ),
        autoscaler_factory=lambda: Autoscaler(
            TargetConcurrencyPolicy(1.0), keep_alive_s=0.5, control_interval_s=0.25
        ),
        router="warmth",
        wan_rtt_s=0.02,
        fail_at={"eu": 3.0},
    )


@pytest.mark.parametrize("seed", (1, 7))
def test_federation_warmth_router_matches_the_scan(monkeypatch, seed):
    indexed_probe = ClusterRuntime.warm_ready
    values = []
    runtimes = {}

    def checked(runtime, tenant, now):
        value = indexed_probe(runtime, tenant, now)
        assert value == _scan_warm_ready(runtime, tenant, now)
        values.append(value)
        runtimes[runtime.region] = runtime
        return value

    monkeypatch.setattr(ClusterRuntime, "warm_ready", checked)
    indexed = _warmth_federation(seed).run()
    for runtime in runtimes.values():
        _assert_back_to_baseline(runtime)
    monkeypatch.setattr(ClusterRuntime, "warm_ready", _scan_warm_ready)
    scanned = _warmth_federation(seed).run()
    assert repr(indexed) == repr(scanned)
    assert len(set(values)) > 4  # the probe saw pools grow, fill and drain

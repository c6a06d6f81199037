"""Property test: the free index's first eligible replica is the load balancer's pick.

:class:`ClusterRuntime` orders each tenant's free index by (in-flight
count, pool position), so it picks the first indexed replica on a node
with a free core, and a hedge takes the next one, instead of handing a
candidate list to ``min``.  Over random pools — concurrency 1-3, replicas
still warming up, nodes saturated by another tenant's load, plain and
hedged picks, releases and drops — every pick must equal the reference
kept here: the candidates a full pool scan finds (ready, under their
concurrency limit, on a node with a free core), in pool order, and
``min(candidates, key=in-flight)`` over them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.gateway import FairnessPolicy, IntraTenantOrder
from repro.sim.clock import SimClock
from repro.sim.engine import EventLoop
from repro.traffic.arrivals import Request
from repro.traffic.autoscaler import Autoscaler, TargetConcurrencyPolicy
from repro.traffic.cluster_runtime import ClusterRuntime, _spec_for_mode, _TenantState
from repro.traffic.engine import TrafficConfig
from repro.traffic.tenants import TenantSpec

TENANTS = ("a", "b")


def _runtime(concurrency, nodes):
    states = [
        _TenantState(
            spec=TenantSpec(
                name=name,
                requests=(Request(request_id=0, arrival_s=0.0, function=name, payload_bytes=1),),
            ),
            function_spec=_spec_for_mode("roadrunner-user", name, name),
            autoscaler=Autoscaler(TargetConcurrencyPolicy(1.0)),
            requests=[],
        )
        for name in TENANTS
    ]
    return ClusterRuntime(
        states=states,
        config=TrafficConfig(nodes=nodes, per_replica_concurrency=concurrency),
        fairness=FairnessPolicy.FIFO,
        starvation_guard=32,
        intra=IntraTenantOrder.FIFO,
        oversubscription=3.0,
        clock=SimClock(),
        loop=EventLoop(),
        service_time=lambda mode, payload: 0.001,
        service_cache={},
        counter=[0],
        total_requests=0,
    )


def _reference_candidates(runtime, state, now):
    """The pool scan: ready, under the concurrency limit, on a node with a
    free core (busy slots summed from every replica's in-flight count), in
    pool order."""
    cores = runtime.cores
    busy = dict.fromkeys(cores, 0)
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


def _in_flight(replica):
    return replica.gw_state.in_flight


operations = st.lists(
    st.tuples(
        st.sampled_from(("add", "pick", "pick", "hedge", "release", "release", "drop", "wait")),
        st.sampled_from(TENANTS),
        st.integers(min_value=0, max_value=50),
    ),
    max_size=60,
)


@given(
    concurrency=st.integers(min_value=1, max_value=3),
    nodes=st.integers(min_value=1, max_value=3),
    initial=st.integers(min_value=0, max_value=4),
    ops=operations,
)
@settings(max_examples=150, deadline=None)
def test_first_eligible_entry_is_the_least_loaded_candidate(concurrency, nodes, initial, ops):
    runtime = _runtime(concurrency, nodes)
    now = 0.0
    busy = []  # (state, replica) per request in flight
    for state in runtime.states:
        runtime.add_replicas(state, initial, now)
    for op, tenant, draw in ops:
        state = runtime.by_tenant[tenant]
        if op == "add":
            runtime.add_replicas(state, 1 + draw % 2, now)
        elif op == "wait":
            # Cold starts take tens of milliseconds: a wait may or may not
            # see a replica finish warming.
            now += draw * 4e-3
        elif op in ("pick", "hedge"):
            candidates = _reference_candidates(runtime, state, now)
            at = runtime.pick(state, now)
            if not candidates:
                assert at == -1
                continue
            primary = min(candidates, key=_in_flight)
            assert state.free[at] is primary
            spare = runtime._eligible_after(state.free, at)
            rest = [replica for replica in candidates if replica is not primary]
            assert (spare >= 0) == bool(rest)
            if op == "hedge" and rest:
                second = min(rest, key=_in_flight)
                assert state.free[spare] is second
                # As ClusterRuntime.start takes them: the spare first.
                assert runtime._take(state, spare) is second
                busy.append((state, second))
            assert runtime._take(state, at) is primary
            busy.append((state, primary))
        elif op == "release" and busy:
            owner, replica = busy.pop(draw % len(busy))
            runtime._release(owner, replica, now, now)
        elif op == "drop":
            idle = [
                replica
                for replica in state.replicas
                if replica.gw_state.in_flight == 0 and replica.ready_at <= now
            ]
            if idle:
                runtime.drop_replica(state, idle[draw % len(idle)], now)
        _assert_index_consistent(runtime, now)
    while busy:
        owner, replica = busy.pop()
        runtime._release(owner, replica, now, now)
    _assert_index_consistent(runtime, now)
    assert runtime.gateway.in_flight_total() == 0
    assert all(count == 0 for count in runtime.node_busy.values())


def _assert_index_consistent(runtime, now):
    """Each tenant's free index holds exactly its promoted replicas under
    their limit, keyed and ordered by (in-flight count, pool position), and
    node busy counts equal the in-flight scan."""
    limit = runtime.config.per_replica_concurrency
    busy = dict.fromkeys(runtime.cores, 0)
    for state in runtime.states:
        pending = set(map(id, state.pending))
        position = {id(replica): index for index, replica in enumerate(state.replicas)}
        expected = sorted(
            (
                replica
                for replica in state.replicas
                if id(replica) not in pending and _in_flight(replica) < limit
            ),
            key=lambda replica: (_in_flight(replica), position[id(replica)]),
        )
        assert list(map(id, state.free)) == list(map(id, expected))
        assert state.free_keys == [
            (_in_flight(replica), replica.serial) for replica in state.free
        ]
        for replica in state.replicas:
            busy[replica.node] += _in_flight(replica)
    assert busy == runtime.node_busy


def test_the_pick_property_reaches_saturated_nodes_and_hedges():
    """A fixed run through the same operations: a hedge is taken, a
    concurrency-3 replica is re-keyed rather than removed, and a pick
    passes over an indexed replica whose node another tenant filled."""
    runtime = _runtime(concurrency=3, nodes=2)
    a, b = runtime.by_tenant["a"], runtime.by_tenant["b"]
    runtime.add_replicas(a, 2, 0.0)
    runtime.add_replicas(b, 1, 0.0)
    now = 1.0
    at = runtime.pick(a, now)
    spare = runtime._eligible_after(a.free, at)
    assert (at, spare) == (0, 1)
    first, second = a.free
    assert b.replicas[0].node == first.node != second.node
    runtime._take(a, spare)
    runtime._take(a, at)
    assert a.free == [first, second] and [key[0] for key in a.free_keys] == [1, 1]
    for _ in range(3):
        runtime._take(b, runtime.pick(b, now))
    assert runtime.node_busy[first.node] == runtime.cores[first.node]
    assert runtime.pick(a, now) == 1
    assert _reference_candidates(runtime, a, now) == [second]

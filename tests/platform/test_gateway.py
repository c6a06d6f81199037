"""Tests for the ingress gateway / load balancer."""

import pytest

from repro.core.router import RoadrunnerChannel
from repro.payload import Payload
from repro.platform.cluster import Cluster
from repro.platform.function import FunctionSpec
from repro.platform.gateway import (
    INGRESS_OVERHEAD_S,
    GatewayError,
    IngressGateway,
    RoutingPolicy,
)
from repro.platform.orchestrator import Orchestrator
from repro.sim.ledger import CostCategory
from repro.wasm.runtime import RuntimeKind


def _gateway(policy=RoutingPolicy.ROUND_ROBIN, nodes=1):
    cluster = Cluster.single_node() if nodes == 1 else Cluster.edge_cloud_pair()
    orchestrator = Orchestrator(cluster)
    return cluster, orchestrator, IngressGateway(orchestrator, policy=policy)


def _spec(name="worker"):
    return FunctionSpec(name, runtime=RuntimeKind.ROADRUNNER, workflow="wf")


def _route(gateway, among=None, function="worker"):
    """Route one request through the handle API; return the chosen state.

    ``among`` restricts the candidates to those deployments (default: the
    whole pool, in pool order).
    """
    states = gateway.pool_states(function)
    if among is not None:
        states = [state for state in states if any(state.deployed is d for d in among)]
    return gateway.select_replica(function, states)


def test_register_deploys_replicas_and_charges_cold_start():
    cluster, orchestrator, gateway = _gateway()
    replicas = gateway.register(_spec(), replicas=3)
    assert len(replicas) == 3
    assert len(gateway.replicas("worker")) == 3
    assert cluster.ledger.seconds(CostCategory.COLD_START) > 0
    assert {r.name for r in replicas} == {"worker-r0", "worker-r1", "worker-r2"}


def test_round_robin_spreads_requests_evenly():
    _, _, gateway = _gateway()
    gateway.register(_spec(), replicas=3, charge_cold_start=False)
    for _ in range(9):
        gateway.release_state("worker", _route(gateway))
    assert set(gateway.served_per_replica("worker").values()) == {3}
    assert gateway.requests_routed == 9


def test_least_loaded_prefers_idle_replicas():
    _, _, gateway = _gateway(policy=RoutingPolicy.LEAST_LOADED)
    gateway.register(_spec(), replicas=2, charge_cold_start=False)
    first = _route(gateway)   # stays in flight
    second = _route(gateway)
    assert second is not first
    gateway.release_state("worker", first)
    third = _route(gateway)
    assert third is first  # the released replica is now least loaded


def test_routing_charges_ingress_overhead():
    cluster, _, gateway = _gateway()
    gateway.register(_spec(), replicas=1, charge_cold_start=False)
    before = cluster.ledger.seconds(CostCategory.HTTP)
    for _ in range(3):
        _route(gateway)
    # The per-request charge is deferred, then settled as one batched charge.
    assert cluster.ledger.seconds(CostCategory.HTTP) == before
    gateway.flush_deferred_ingress()
    assert cluster.ledger.seconds(CostCategory.HTTP) == pytest.approx(
        before + 3 * INGRESS_OVERHEAD_S
    )


def test_scale_to_grows_but_never_shrinks():
    _, _, gateway = _gateway()
    gateway.register(_spec(), replicas=1, charge_cold_start=False)
    gateway.scale_to(_spec(), 4)
    assert len(gateway.replicas("worker")) == 4
    gateway.scale_to(_spec(), 2)
    assert len(gateway.replicas("worker")) == 4


def test_errors_for_unknown_functions_and_replicas():
    _, _, gateway = _gateway()
    with pytest.raises(GatewayError):
        _route(gateway, function="ghost")
    with pytest.raises(GatewayError):
        gateway.register(_spec(), replicas=0)
    gateway.register(_spec(), replicas=1, charge_cold_start=False)
    gateway.register(_spec("sibling"), replicas=1, charge_cold_start=False)
    other_cluster, other_orchestrator, other_gateway = _gateway()
    other_gateway.register(_spec("worker"), replicas=1, charge_cold_start=False)
    # Busy handles of another gateway, or of another function, are refused
    # and leave every in-flight count as it was.
    foreign = _route(other_gateway)
    sibling = _route(gateway, function="sibling")
    for function, state in (("worker", foreign), ("worker", sibling)):
        with pytest.raises(GatewayError, match="does not belong"):
            gateway.release_state(function, state)
    assert foreign.in_flight == 1 and other_gateway.in_flight_total() == 1
    assert sibling.in_flight == 1 and gateway.in_flight_total() == 1


def test_routed_replica_can_receive_data_through_roadrunner():
    cluster, orchestrator, gateway = _gateway()
    source = orchestrator.deploy(
        FunctionSpec("ingest", runtime=RuntimeKind.ROADRUNNER, workflow="wf"),
        "node-a",
        share_vm_key="wf",
        materialize=True,
    )
    gateway.register(_spec(), replicas=2, node_name="node-a", share_vm_key="wf",
                     charge_cold_start=False)
    channel = RoadrunnerChannel(cluster)
    payload = Payload.random(32 * 1024, seed=55)
    target = _route(gateway)
    outcome = channel.transfer(source, target.deployed, payload)
    payload.require_match(outcome.delivered)
    gateway.release_state("worker", target)


def _route_under_skew(policy):
    """Route a fixed request sequence where early requests never finish."""
    _, _, gateway = _gateway(policy=policy)
    gateway.register(_spec(), replicas=3, charge_cold_start=False)
    # Three long-running requests pile onto whatever the policy picks first;
    # none are released, so in-flight load stays skewed.
    for _ in range(3):
        _route(gateway)
    # Six short requests follow, each released immediately.
    for _ in range(6):
        gateway.release_state("worker", _route(gateway))
    return gateway.served_per_replica("worker"), gateway.in_flight("worker")


def test_least_loaded_and_round_robin_diverge_under_skew():
    rr_served, rr_stuck = _route_under_skew(RoutingPolicy.ROUND_ROBIN)
    ll_served, ll_stuck = _route_under_skew(RoutingPolicy.LEAST_LOADED)
    # Round-robin ignores load entirely: every replica gets 3 requests and
    # every replica carries one stuck request.
    assert set(rr_served.values()) == {3}
    assert set(rr_stuck.values()) == {1}
    # Least-loaded piles nothing further on the replica that is still busy:
    # the three stuck requests spread out (one each), and later traffic only
    # ever raises a replica to the current minimum load plus one.
    assert set(ll_stuck.values()) == {1}
    assert rr_served != ll_served or rr_stuck != ll_stuck


def test_least_loaded_avoids_a_hot_replica():
    _, _, gateway = _gateway(policy=RoutingPolicy.LEAST_LOADED)
    first, second = gateway.register(_spec(), replicas=2, charge_cold_start=False)
    # Pin three requests on one replica via the admission hook.
    for _ in range(3):
        assert _route(gateway, among=[first]).deployed is first
    # Free-choice routing now prefers the idle replica until loads equalize.
    for _ in range(3):
        assert _route(gateway).deployed is second
    assert gateway.in_flight("worker") == {first.name: 3, second.name: 3}


def test_scale_from_zero_charges_one_cold_start_per_replica():
    cluster, _, gateway = _gateway()
    ledger = cluster.ledger

    gateway.register(_spec(), replicas=1)
    per_replica = ledger.seconds(CostCategory.COLD_START)
    assert per_replica > 0
    assert gateway.cold_starts == 1

    # Each further replica of the same spec pays exactly the same cold start.
    gateway.register(_spec(), replicas=2)
    assert gateway.cold_starts == 3
    assert ledger.seconds(CostCategory.COLD_START) == pytest.approx(3 * per_replica)

    # Warm registration adds replicas without touching the cold-start ledger.
    gateway.register(_spec(), replicas=1, charge_cold_start=False)
    assert gateway.cold_starts == 3
    assert ledger.seconds(CostCategory.COLD_START) == pytest.approx(3 * per_replica)


def test_remove_replica_reclaims_idle_capacity():
    _, orchestrator, gateway = _gateway()
    replicas = gateway.register(_spec(), replicas=3, charge_cold_start=False)
    gateway.remove_replica("worker", replicas[1])
    assert gateway.pool_size("worker") == 2
    assert gateway.scale_downs == 1
    assert replicas[1].name not in orchestrator.deployments
    # Removed names are never reused: the next replica gets a fresh serial.
    fresh = gateway.register(_spec(), replicas=1, charge_cold_start=False)[0]
    assert fresh.name == "worker-r3"


def test_remove_replica_refuses_in_flight_and_foreign_replicas():
    _, _, gateway = _gateway()
    replicas = gateway.register(_spec(), replicas=2, charge_cold_start=False)
    busy = _route(gateway)
    with pytest.raises(GatewayError):
        gateway.remove_replica("worker", busy.deployed)
    gateway.release_state("worker", busy)
    gateway.remove_replica("worker", busy.deployed)
    other_cluster, other_orchestrator, other_gateway = _gateway()
    foreign = other_gateway.register(_spec(), replicas=1, charge_cold_start=False)[0]
    with pytest.raises(GatewayError):
        gateway.remove_replica("worker", foreign)


def test_route_among_requires_eligible_pool_members():
    _, _, gateway = _gateway()
    replicas = gateway.register(_spec(), replicas=2, charge_cold_start=False)
    chosen = _route(gateway, among=replicas[:1])
    assert chosen.deployed is replicas[0]
    with pytest.raises(GatewayError):
        gateway.select_replica("worker", [])


def test_route_over_emptied_pool_raises_gateway_error():
    """A pool scaled to zero refuses routing with a GatewayError, not IndexError."""
    _, _, gateway = _gateway()
    replicas = gateway.register(_spec(), replicas=2, charge_cold_start=False)
    for deployed in replicas:
        gateway.remove_replica("worker", deployed)
    with pytest.raises(GatewayError):
        gateway.pool_states("worker")
    with pytest.raises(GatewayError):
        gateway.select_replica("worker", [])


def test_double_release_raises_instead_of_corrupting_in_flight():
    """Releasing more than was routed used to silently no-op; now it raises."""
    _, _, gateway = _gateway()
    gateway.register(_spec(), replicas=1, charge_cold_start=False)
    chosen = _route(gateway)
    gateway.release_state("worker", chosen)
    with pytest.raises(GatewayError):
        gateway.release_state("worker", chosen)
    # Accounting stayed sane: the replica is idle, not negative.
    assert gateway.in_flight("worker") == {chosen.deployed.name: 0}
    assert gateway.in_flight_total() == 0


def test_release_after_scale_down_shrink_race_raises():
    """The shrink race: a stale handle released after its replica was removed.

    The driver routed to a replica, finished, released it, and the
    autoscaler then reclaimed it.  A second (buggy) release of the stale
    handle must raise instead of silently decrementing some other
    replica's in-flight count.
    """
    _, _, gateway = _gateway()
    replicas = gateway.register(_spec(), replicas=2, charge_cold_start=False)
    stale = _route(gateway, among=replicas[:1])
    gateway.release_state("worker", stale)
    gateway.remove_replica("worker", stale.deployed)
    with pytest.raises(GatewayError):
        gateway.release_state("worker", stale)
    # The surviving replica's accounting is untouched.
    assert gateway.in_flight("worker") == {replicas[1].name: 0}


def test_round_robin_cursor_stays_bounded_and_rotation_survives():
    """The cursor normalizes modulo the pool instead of growing forever."""
    _, _, gateway = _gateway()
    gateway.register(_spec(), replicas=3, charge_cold_start=False)
    for _ in range(1000):
        gateway.release_state("worker", _route(gateway))
    assert 0 <= gateway._round_robin_cursor["worker"] < 3
    # Rotation is still even after the long run.
    assert set(gateway.served_per_replica("worker").values()) == {1000 // 3 + 1} or (
        max(gateway.served_per_replica("worker").values())
        - min(gateway.served_per_replica("worker").values())
        <= 1
    )
    # The normalized cursor stays a valid index when the pool then grows.
    gateway.register(_spec(), replicas=2, charge_cold_start=False)
    seen = {_route(gateway).deployed.name for _ in range(5)}
    assert len(seen) == 5  # one full rotation over the grown pool

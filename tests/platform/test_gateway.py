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
)
from repro.platform.orchestrator import Orchestrator
from repro.sim.ledger import CostCategory
from repro.wasm.runtime import RuntimeKind


def _gateway(nodes=1):
    cluster = Cluster.single_node() if nodes == 1 else Cluster.edge_cloud_pair()
    orchestrator = Orchestrator(cluster)
    return cluster, orchestrator, IngressGateway(orchestrator)


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


def test_least_loaded_prefers_idle_replicas():
    _, _, gateway = _gateway()
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


def test_least_loaded_avoids_a_hot_replica():
    _, _, gateway = _gateway()
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

"""Ingress gateway + trace replay: a platform-level view of Roadrunner.

Clients never address a serverless function directly — they hit the platform
ingress, which load-balances across replicas (Sec. 1 of the paper).  This
example registers a small replica pool behind the gateway, replays a bursty
invocation trace against it with Roadrunner's user-space transfers, and then
replays the same trace on the WasmEdge HTTP baseline for comparison.

Run with::

    python examples/edge_gateway_replay.py
"""

from __future__ import annotations

from repro import Cluster, FunctionSpec, Orchestrator, RuntimeKind
from repro.core.router import RoadrunnerChannel
from repro.platform.gateway import IngressGateway
from repro.workloads.generators import make_payload
from repro.workloads.traces import bursty_trace, compare_modes_on_trace


def gateway_demo() -> None:
    print("=== Ingress gateway: routing client requests to replicas ===")
    cluster = Cluster.single_node()
    orchestrator = Orchestrator(cluster)
    ingest = orchestrator.deploy(
        FunctionSpec("ingest", runtime=RuntimeKind.ROADRUNNER, workflow="wf"),
        "node-a",
        share_vm_key="wf",
        materialize=True,
    )
    gateway = IngressGateway(orchestrator)
    gateway.register(
        FunctionSpec("detector", runtime=RuntimeKind.ROADRUNNER, workflow="wf"),
        replicas=3,
        node_name="node-a",
        share_vm_key="wf",
    )
    channel = RoadrunnerChannel(cluster)

    payload = make_payload(2, real=True)
    # Route a burst of six concurrent requests: least-loaded spreads them over
    # the three replicas, then they are released as they complete.
    in_flight = []
    for request in range(6):
        replica = gateway.select_replica("detector", gateway.pool_states("detector"))
        outcome = channel.transfer(ingest, replica.deployed, payload)
        in_flight.append(replica)
        print("request %d -> %-12s %.6f s (mode=%s)"
              % (request, replica.deployed.name, outcome.metrics.total_latency_s,
                 outcome.metrics.mode))
    for replica in in_flight:
        gateway.release_state("detector", replica)
    # Settle the per-request ingress overhead, batched into one ledger charge.
    gateway.flush_deferred_ingress()
    print("requests served per replica:", gateway.served_per_replica("detector"))


def trace_demo() -> None:
    print("\n=== Bursty trace replay: Roadrunner vs WasmEdge HTTP ===")
    trace = bursty_trace(bursts=3, burst_size=15, payload_mb=10)
    results = compare_modes_on_trace(trace, ("roadrunner-user", "wasmedge-http"))
    for mode, result in results.items():
        print("  " + result.summary())
    roadrunner, wasmedge = results["roadrunner-user"], results["wasmedge-http"]
    print("p95 latency improvement: %.1f%%"
          % (100 * (1 - roadrunner.p95_latency_s / wasmedge.p95_latency_s)))


def main() -> None:
    gateway_demo()
    trace_demo()


if __name__ == "__main__":
    main()

"""Tests for the RunC-HTTP and WasmEdge-HTTP baseline channels."""

import pytest

from repro.baselines.runc_http import RunCHttpChannel
from repro.baselines.wasmedge_http import WasmEdgeHttpChannel
from repro.payload import Payload
from repro.platform.channel import ChannelError
from repro.platform.cluster import Cluster
from repro.platform.orchestrator import Orchestrator

from tests.conftest import make_container_specs, make_wasmedge_specs


def test_runc_http_round_trip_and_serialization(container_pair):
    cluster, _, (a, b) = container_pair
    channel = RunCHttpChannel(cluster)
    payload = Payload.random(64 * 1024, seed=21)
    outcome = channel.transfer(a, b, payload)
    payload.require_match(outcome.delivered)
    metrics = outcome.metrics
    assert metrics.serialization_s > 0
    assert metrics.breakdown.get("http", 0) > 0
    assert metrics.copied_bytes >= 2 * payload.size
    assert metrics.wasm_io_s == 0


def test_runc_http_rejects_wasm_deployments(wasmedge_pair):
    cluster, _, (a, b) = wasmedge_pair
    channel = RunCHttpChannel(cluster)
    assert not channel.supports(a, b)
    with pytest.raises(ChannelError):
        channel.transfer(a, b, Payload.random(64))


def test_wasmedge_http_round_trip_pays_wasm_serialization(wasmedge_pair):
    cluster, _, (a, b) = wasmedge_pair
    channel = WasmEdgeHttpChannel(cluster)
    payload = Payload.random(64 * 1024, seed=22)
    outcome = channel.transfer(a, b, payload)
    payload.require_match(outcome.delivered)
    metrics = outcome.metrics
    assert metrics.serialization_s > 0
    assert metrics.wasm_io_s > 0  # WASI boundary copies
    assert metrics.copied_bytes > 2 * payload.size


def test_wasmedge_http_requires_wasi(container_pair):
    cluster, _, (a, b) = container_pair
    channel = WasmEdgeHttpChannel(cluster)
    assert not channel.supports(a, b)
    with pytest.raises(ChannelError):
        channel.transfer(a, b, Payload.random(64))


def test_wasmedge_is_slower_than_runc_for_same_payload(container_pair, wasmedge_pair):
    """The paper's Fig. 2b observation: Wasm pays much more for the same I/O."""
    payload = Payload.virtual(10 * 1024 * 1024)
    runc_cluster, _, (ra, rb) = container_pair
    wasm_cluster, _, (wa, wb) = wasmedge_pair
    runc_outcome = RunCHttpChannel(runc_cluster).transfer(ra, rb, payload)
    wasm_outcome = WasmEdgeHttpChannel(wasm_cluster).transfer(wa, wb, payload)
    assert wasm_outcome.metrics.total_latency_s > 2 * runc_outcome.metrics.total_latency_s
    assert wasm_outcome.metrics.serialization_s > 5 * runc_outcome.metrics.serialization_s


def test_serialization_share_matches_motivation_bands(container_pair, wasmedge_pair):
    """Serialization is a small share for containers, a dominant one for Wasm."""
    payload = Payload.virtual(60 * 1024 * 1024)
    runc_cluster, _, (ra, rb) = container_pair
    wasm_cluster, _, (wa, wb) = wasmedge_pair
    runc = RunCHttpChannel(runc_cluster).transfer(ra, rb, payload).metrics
    wasm = WasmEdgeHttpChannel(wasm_cluster).transfer(wa, wb, payload).metrics
    runc_share = runc.serialization_s / runc.total_latency_s
    wasm_share = wasm.serialization_s / wasm.total_latency_s
    assert runc_share < 0.35
    assert wasm_share > 0.5


def test_inter_node_baselines_work_over_the_shaped_link():
    cluster = Cluster.edge_cloud_pair()
    orchestrator = Orchestrator(cluster)
    a, b = orchestrator.deploy_all(
        make_container_specs(), placement={"fn-a": "edge", "fn-b": "cloud"}, materialize=True
    )
    payload = Payload.random(128 * 1024, seed=23)
    outcome = RunCHttpChannel(cluster).transfer(a, b, payload)
    payload.require_match(outcome.delivered)
    assert outcome.metrics.breakdown.get("network", 0) > 0

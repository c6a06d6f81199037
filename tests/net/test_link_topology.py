"""Unit tests for network links, NICs and the cluster topology."""

import pytest

from repro.kernel.kernel import Kernel
from repro.net.link import LinkError, LoopbackLink, NetworkLink
from repro.net.nic import PER_PACKET_SECONDS, Nic
from repro.net.topology import Topology, TopologyError
from repro.sim.costs import CostModel
from repro.sim.ledger import CostLedger


@pytest.fixture
def model():
    return CostModel.paper_testbed()


def test_link_defaults_come_from_cost_model(model):
    link = NetworkLink(model)
    assert link.bandwidth == model.network_bandwidth
    assert link.rtt == model.network_rtt


def test_transfer_seconds_scale_with_bytes(model):
    link = NetworkLink(model)
    assert link.transfer_seconds(10_000_000) > link.transfer_seconds(1_000_000)


def test_wasi_mediation_slows_the_same_link(model):
    link = NetworkLink(model)
    nbytes = 20 * 1024 * 1024
    assert link.transfer_seconds(nbytes, wasi_mediated=True) > link.transfer_seconds(nbytes)


def test_loopback_is_faster_than_the_shaped_link(model):
    nbytes = 10 * 1024 * 1024
    assert LoopbackLink(model).transfer_seconds(nbytes) < NetworkLink(model).transfer_seconds(nbytes)


def test_link_validation(model):
    with pytest.raises(LinkError):
        NetworkLink(model, bandwidth=0)
    with pytest.raises(LinkError):
        NetworkLink(model, rtt=-1)
    with pytest.raises(LinkError):
        NetworkLink(model).transfer_seconds(-1)


def test_link_rejects_non_finite_parameters(model):
    with pytest.raises(LinkError, match="bandwidth must be positive and finite"):
        NetworkLink(model, bandwidth=float("inf"))
    with pytest.raises(LinkError, match="bandwidth must be positive and finite"):
        NetworkLink(model, bandwidth=float("nan"))
    with pytest.raises(LinkError, match="RTT must be non-negative and finite"):
        NetworkLink(model, rtt=float("inf"))
    with pytest.raises(LinkError, match="RTT must be non-negative and finite"):
        NetworkLink(model, rtt=float("nan"))


def test_link_error_names_the_link_and_value(model):
    with pytest.raises(LinkError, match="-7"):
        NetworkLink(model, bandwidth=-7)


def test_link_packet_count(model):
    link = NetworkLink(model)
    assert link.packets(0) == 1
    assert link.packets(model.mtu_bytes * 3) == 3


def test_nic_counts_packets_and_charges_kernel_cpu():
    kernel = Kernel(ledger=CostLedger(), node_name="n")
    process = kernel.create_process("fn")
    nic = Nic(kernel)
    assert nic.transmit(process, 4500) == pytest.approx(3 * PER_PACKET_SECONDS)
    assert nic.receive(process, 1500) == pytest.approx(PER_PACKET_SECONDS)
    assert process.cgroup.kernel_cpu_seconds == pytest.approx(4 * PER_PACKET_SECONDS)


def test_topology_single_node_uses_loopback(model):
    topo = Topology(model)
    topo.add_node("only")
    link = topo.link_between("only", "only")
    assert isinstance(link, LoopbackLink)
    assert topo.colocated("only", "only")


def test_topology_edge_cloud_pair(model):
    topo = Topology(model)
    topo.add_node("edge")
    topo.add_node("cloud")
    topo.connect("edge", "cloud")
    link = topo.link_between("edge", "cloud")
    assert link.is_remote
    assert not topo.colocated("edge", "cloud")
    # Link lookup is symmetric.
    assert topo.link_between("cloud", "edge") is link


def test_topology_validation(model):
    topo = Topology(model)
    topo.add_node("a")
    with pytest.raises(TopologyError):
        topo.add_node("a")
    with pytest.raises(TopologyError):
        topo.add_node("")
    topo.add_node("b")
    with pytest.raises(TopologyError):
        topo.link_between("a", "b")  # not connected yet
    with pytest.raises(TopologyError):
        topo.connect("a", "a")
    with pytest.raises(TopologyError):
        topo.link_between("a", "missing")


def test_topology_rejects_duplicate_edges(model):
    topo = Topology(model)
    topo.add_node("a")
    topo.add_node("b")
    topo.connect("a", "b")
    with pytest.raises(TopologyError, match="already connected"):
        topo.connect("a", "b")
    # Edges are undirected: the reversed pair is the same edge.
    with pytest.raises(TopologyError, match="already connected"):
        topo.connect("b", "a")


def test_topology_custom_bandwidth(model):
    topo = Topology(model)
    topo.add_node("edge")
    topo.add_node("cloud")
    topo.connect("edge", "cloud", bandwidth=1.0e6, rtt=0.01)
    link = topo.link_between("edge", "cloud")
    assert link.bandwidth == pytest.approx(1.0e6)
    assert link.rtt == pytest.approx(0.01)

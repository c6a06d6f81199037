"""The cluster: nodes plus the links between them, over sharded ledgers.

Experiments create a cluster in one of two shapes: a single node (intra-node
experiments) or the paper's edge-cloud pair (inter-node experiments).  Cost
accounting is sharded: every node charges its own
:class:`~repro.sim.ledger.NodeLedger` (named ``ledger:<node>``, unique per
cluster), and :attr:`Cluster.ledger` is the
:class:`~repro.sim.ledger.ClusterLedger` merging the shards into one
deterministic timeline — the same read surface the old shared ledger
offered, which is why every pre-shard caller keeps working.  All shards
share one simulated clock in serial runs, so a transfer spanning two nodes
still advances a single timeline, while CPU and memory remain attributed
per sandbox via cgroups and per node via the shards.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.net.link import NetworkLink
from repro.net.topology import Topology
from repro.platform.node import ClusterNode
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL
from repro.sim.ledger import ClusterLedger, CostLedger


class ClusterError(RuntimeError):
    """Raised for unknown nodes."""


class Cluster:
    """A set of nodes and the topology connecting them."""

    def __init__(
        self,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        ledger: Optional[CostLedger] = None,
    ) -> None:
        self.cost_model = cost_model
        if isinstance(ledger, ClusterLedger):
            self.ledger = ledger
        elif ledger is not None:
            # A caller-supplied plain ledger becomes the cluster shard: its
            # clock drives the whole cluster and charges recorded on the
            # caller's handle stay part of the merged view.  The reverse
            # does NOT hold — node-scoped work lands on per-node shards, so
            # totals must be read through ``cluster.ledger`` (the merged
            # view), not through the handle that was passed in.
            self.ledger = ClusterLedger(backing=ledger, name=ledger.name or "cluster")
        else:
            self.ledger = ClusterLedger(name="cluster")
        self.topology = Topology(cost_model)
        self._nodes: Dict[str, ClusterNode] = {}
        self._node_names: Tuple[str, ...] = ()

    def add_node(self, name: str) -> ClusterNode:
        if name in self._nodes:
            raise ClusterError("node %r already exists" % name)
        self.topology.add_node(name)
        node = ClusterNode(
            name=name,
            ledger=self.ledger.shard(name),
            cost_model=self.cost_model,
        )
        self._nodes[name] = node
        self._node_names += (name,)
        return node

    def node_ledger(self, name: str):
        """The per-node cost shard for ``name`` (the node's charging handle)."""
        return self.ledger.node_shard(name)

    def connect(
        self,
        a: str,
        b: str,
        bandwidth: Optional[float] = None,
        rtt: Optional[float] = None,
    ) -> NetworkLink:
        return self.topology.connect(a, b, bandwidth=bandwidth, rtt=rtt)

    def node(self, name: str) -> ClusterNode:
        if name not in self._nodes:
            raise ClusterError("unknown node %r" % name)
        return self._nodes[name]

    @property
    def nodes(self) -> Dict[str, ClusterNode]:
        return dict(self._nodes)

    @property
    def node_names(self) -> Tuple[str, ...]:
        """Node names in creation order (no copy: the tuple is immutable)."""
        return self._node_names

    def link_between(self, a: str, b: str) -> NetworkLink:
        return self.topology.link_between(a, b)

    def colocated(self, a: str, b: str) -> bool:
        return self.topology.colocated(a, b)

    # -- canonical shapes -----------------------------------------------------------

    @classmethod
    def single_node(cls, cost_model: CostModel = DEFAULT_COST_MODEL) -> "Cluster":
        """One node, ``node-a``: the intra-node experiments (Figs. 7 and 9)."""
        cluster = cls(cost_model=cost_model)
        cluster.add_node("node-a")
        return cluster

    @classmethod
    def edge_cloud_pair(cls, cost_model: CostModel = DEFAULT_COST_MODEL) -> "Cluster":
        """Nodes ``edge`` and ``cloud`` joined by the testbed link (Figs. 6, 8 and 10)."""
        cluster = cls(cost_model=cost_model)
        cluster.add_node("edge")
        cluster.add_node("cloud")
        cluster.connect("edge", "cloud")
        return cluster

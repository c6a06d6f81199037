"""Cluster topology: which nodes exist and which links connect them.

The experiments use two flavours: a single node (intra-node experiments,
Figs. 7 and 9) and a two-node edge-cloud pair connected by a shaped link
(inter-node experiments, Figs. 6, 8 and 10).  The topology answers one
question for Roadrunner's router: is the target function on the same node,
and if not, which link do we cross?
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.net.link import LoopbackLink, NetworkLink
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL


class TopologyError(ValueError):
    """Raised for unknown nodes or missing links."""


class Topology:
    """An undirected graph of node names connected by links."""

    def __init__(self, cost_model: CostModel = DEFAULT_COST_MODEL) -> None:
        self.cost_model = cost_model
        self._nodes: Dict[str, LoopbackLink] = {}
        self._links: Dict[Tuple[str, str], NetworkLink] = {}

    def add_node(self, name: str) -> None:
        if not name:
            raise TopologyError("node name must be non-empty")
        if name in self._nodes:
            raise TopologyError("node %r already exists" % name)
        self._nodes[name] = LoopbackLink(self.cost_model, name="lo:%s" % name)

    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(self._nodes)

    def connect(
        self,
        a: str,
        b: str,
        bandwidth: Optional[float] = None,
        rtt: Optional[float] = None,
    ) -> NetworkLink:
        """Create a link between nodes ``a`` and ``b``."""
        self._require(a)
        self._require(b)
        if a == b:
            raise TopologyError("use the loopback link for same-node traffic")
        key = self._key(a, b)
        if key in self._links:
            raise TopologyError(
                "nodes %r and %r are already connected by %r" % (a, b, self._links[key].name)
            )
        link = NetworkLink(self.cost_model, bandwidth=bandwidth, rtt=rtt, name="%s<->%s" % (a, b))
        self._links[key] = link
        return link

    def link_between(self, a: str, b: str) -> NetworkLink:
        """The link to use for traffic from ``a`` to ``b`` (loopback if same node)."""
        self._require(a)
        self._require(b)
        if a == b:
            return self._nodes[a]
        key = self._key(a, b)
        if key not in self._links:
            raise TopologyError("nodes %r and %r are not connected" % (a, b))
        return self._links[key]

    def colocated(self, a: str, b: str) -> bool:
        self._require(a)
        self._require(b)
        return a == b

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def _require(self, name: str) -> None:
        if name not in self._nodes:
            raise TopologyError("unknown node %r" % name)

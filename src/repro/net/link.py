"""Network links: bandwidth/RTT models, including traffic-controlled links.

A link converts a byte count into wire seconds.  Two flavours exist:

* :class:`NetworkLink` — an inter-node link with configurable bandwidth and
  round-trip time (the paper shapes its link with ``tc``);
* :class:`LoopbackLink` — the same-host loopback device used by the intra-node
  HTTP baselines; high bandwidth, negligible RTT, but still a real data path
  through the kernel.

Both accept a ``wasi_mediated`` flag: when every socket read/write is a WASI
host call (the WasmEdge baseline), the achievable goodput drops, which the
link expresses as an efficiency factor from the cost model.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.sim.costs import CostModel, DEFAULT_COST_MODEL


class LinkError(ValueError):
    """Raised for invalid link configuration."""


class NetworkLink:
    """A point-to-point link between two nodes."""

    def __init__(
        self,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        bandwidth: Optional[float] = None,
        rtt: Optional[float] = None,
        name: str = "link",
    ) -> None:
        self.cost_model = cost_model
        self.bandwidth = bandwidth if bandwidth is not None else cost_model.network_bandwidth
        self.rtt = rtt if rtt is not None else cost_model.network_rtt
        self.name = name
        if not math.isfinite(self.bandwidth) or self.bandwidth <= 0:
            raise LinkError(
                "link %r bandwidth must be positive and finite, got %r" % (name, self.bandwidth)
            )
        if not math.isfinite(self.rtt) or self.rtt < 0:
            raise LinkError(
                "link %r RTT must be non-negative and finite, got %r" % (name, self.rtt)
            )

    @property
    def is_remote(self) -> bool:
        """True when the link crosses node boundaries."""
        return True

    def effective_bandwidth(self, wasi_mediated: bool = False) -> float:
        if wasi_mediated:
            return self.bandwidth * self.cost_model.wasi_network_efficiency
        return self.bandwidth

    def transfer_seconds(self, nbytes: int, wasi_mediated: bool = False) -> float:
        """One-way latency for ``nbytes``: propagation plus transmission."""
        if nbytes < 0:
            raise LinkError("nbytes must be non-negative")
        return self.rtt / 2.0 + nbytes / self.effective_bandwidth(wasi_mediated)

    def packets(self, nbytes: int) -> int:
        """Number of MTU-sized packets needed for ``nbytes``."""
        if nbytes <= 0:
            return 1
        return -(-nbytes // self.cost_model.mtu_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NetworkLink(%r, %.1f MB/s, rtt=%.3f ms)" % (
            self.name,
            self.bandwidth / 1e6,
            self.rtt * 1e3,
        )


class LoopbackLink(NetworkLink):
    """The same-host loopback path used by intra-node HTTP baselines."""

    def __init__(self, cost_model: CostModel = DEFAULT_COST_MODEL, name: str = "lo") -> None:
        super().__init__(
            cost_model=cost_model,
            bandwidth=cost_model.loopback_http_bandwidth,
            rtt=60.0e-6,
            name=name,
        )

    @property
    def is_remote(self) -> bool:
        return False

"""Transfer metrics and the ledger window used to measure them.

The paper's latency metric is "the duration from when function a initiates
the data transfer to when function b has successfully received the message"
(Sec. 6.1).  A :class:`LedgerWindow` brackets exactly that interval on the
cost ledger; the resulting :class:`TransferMetrics` carries the breakdown
needed for every figure panel (total, serialization, Wasm VM I/O, CPU split,
RAM, copies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.ledger import (
    SERIALIZATION_CATEGORIES,
    CostCategory,
    CostLedger,
    CpuDomain,
)


@dataclass(frozen=True)
class TransferMetrics:
    """Measurements for one logical data transfer (or one fan-out branch)."""

    mode: str
    payload_bytes: int
    total_latency_s: float
    serialization_s: float
    wasm_io_s: float
    transfer_s: float
    cpu_user_s: float
    cpu_kernel_s: float
    copied_bytes: int
    reference_bytes: int
    syscalls: int
    context_switches: int
    peak_memory_mb: float
    breakdown: Dict[str, float] = field(default_factory=dict)
    #: Charged seconds per ledger shard ("" for a standalone ledger) — the
    #: per-node attribution of this transfer's cost.
    node_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def cpu_total_s(self) -> float:
        return self.cpu_user_s + self.cpu_kernel_s

    @property
    def throughput_rps(self) -> float:
        """Requests per second, extrapolated from a single transfer (Sec. 6.1)."""
        if self.total_latency_s <= 0:
            return float("inf")
        return 1.0 / self.total_latency_s

    @property
    def serialization_throughput_rps(self) -> float:
        """Throughput considering only the serialization component."""
        if self.serialization_s <= 0:
            return float("inf")
        return 1.0 / self.serialization_s


#: Categories counted as "transfer" (everything that moves bytes, minus
#: serialization and Wasm VM I/O which the paper breaks out separately).
_TRANSFER_CATEGORIES = (
    CostCategory.TRANSFER,
    CostCategory.MEMCPY,
    CostCategory.SYSCALL,
    CostCategory.CONTEXT_SWITCH,
    CostCategory.IPC,
    CostCategory.NETWORK,
    CostCategory.SPLICE,
    CostCategory.HTTP,
)

#: Float metric slot of each category's seconds in ``LedgerWindow._build``.
_CATEGORY_METRIC: Dict[CostCategory, int] = {category: 3 for category in CostCategory}
_CATEGORY_METRIC.update(dict.fromkeys(SERIALIZATION_CATEGORIES, 0))
_CATEGORY_METRIC[CostCategory.WASM_IO] = 1
_CATEGORY_METRIC.update(dict.fromkeys(_TRANSFER_CATEGORIES, 2))
#: CPU-time slot of each domain's seconds in ``LedgerWindow._build``.
_DOMAIN_METRIC: Dict[CpuDomain, int] = {CpuDomain.USER: 0, CpuDomain.KERNEL: 1, CpuDomain.NONE: 2}


class LedgerWindow:
    """Context manager measuring the ledger activity inside a ``with`` block.

    Works over a plain :class:`CostLedger` and over the sharded
    :class:`~repro.sim.ledger.ClusterLedger` alike: the window brackets the
    interval with a :meth:`~repro.sim.ledger.CostLedger.snapshot`, so charges
    are captured whichever node shard they landed on.
    """

    def __init__(self, ledger: CostLedger, mode: str, payload_bytes: int) -> None:
        self.ledger = ledger
        self.mode = mode
        self.payload_bytes = payload_bytes
        self._start: Optional[object] = None
        self._start_time = 0.0
        self._metrics: Optional[TransferMetrics] = None

    def __enter__(self) -> "LedgerWindow":
        self._start = self.ledger.snapshot()
        self._start_time = self.ledger.clock.now
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            return
        self._metrics = self._build()

    @property
    def metrics(self) -> TransferMetrics:
        if self._metrics is None:
            raise RuntimeError("LedgerWindow metrics requested before the window closed")
        return self._metrics

    def _build(self) -> TransferMetrics:
        """Reduce the window's charges in one pass.

        Each float metric collects its operands in charge order and sums
        them with ``sum()`` at the end, so it equals the per-metric
        ``sum(<generator>)`` scan exactly on every Python version (3.12's
        ``sum()`` compensates rounding, a running ``+=`` would not).
        """
        charges = self.ledger.charges_since(self._start)
        total = self.ledger.clock.now - self._start_time
        # Operands of each float metric, in charge order: serialization,
        # Wasm VM I/O, transfer, none (by category); user, kernel, none
        # (by CPU domain).
        by_metric: Tuple[List[float], ...] = ([], [], [], [])
        by_domain: Tuple[List[float], ...] = ([], [], [])
        copied = referenced = syscalls = switches = 0
        by_category: Dict[CostCategory, float] = {}
        node_seconds: Dict[str, float] = {}
        for category, seconds, domain, nbytes, was_copied, _, _, units, node, _ in charges:
            by_metric[_CATEGORY_METRIC[category]].append(seconds)
            by_domain[_DOMAIN_METRIC[domain]].append(seconds)
            if category is CostCategory.SYSCALL:
                syscalls += units
            elif category is CostCategory.CONTEXT_SWITCH:
                switches += 1
            if was_copied:
                copied += nbytes
            elif nbytes:
                referenced += nbytes
            by_category[category] = by_category.get(category, 0.0) + seconds
            node_seconds[node] = node_seconds.get(node, 0.0) + seconds
        return TransferMetrics(
            mode=self.mode,
            payload_bytes=self.payload_bytes,
            total_latency_s=total,
            serialization_s=sum(by_metric[0]),
            wasm_io_s=sum(by_metric[1]),
            transfer_s=sum(by_metric[2]),
            cpu_user_s=sum(by_domain[0]),
            cpu_kernel_s=sum(by_domain[1]),
            copied_bytes=copied,
            reference_bytes=referenced,
            syscalls=syscalls,
            context_switches=switches,
            peak_memory_mb=self.ledger.peak_memory_mb(),
            # Keyed by member while folding: same first-seen key order and
            # per-key addition order as keying by ``category.value``.
            breakdown={category.value: seconds for category, seconds in by_category.items()},
            node_seconds=node_seconds,
        )

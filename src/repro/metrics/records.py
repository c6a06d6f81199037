"""Transfer metrics and the ledger window used to measure them.

The paper's latency metric is "the duration from when function a initiates
the data transfer to when function b has successfully received the message"
(Sec. 6.1).  A :class:`LedgerWindow` brackets exactly that interval on the
cost ledger; the resulting :class:`TransferMetrics` carries the breakdown
needed for every figure panel (total, serialization, Wasm VM I/O, CPU split,
RAM, copies).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.record import TypedRecord
from repro.sim.ledger import (
    CATEGORY_NAMES,
    SERIALIZATION_CATEGORIES,
    CostCategory,
    CostLedger,
    CpuDomain,
)

_tuple_new = tuple.__new__


class _MetricsFields(NamedTuple):
    """The fields of :class:`TransferMetrics`, which gives each record its
    own empty dicts by default (a NamedTuple default would be shared)."""

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
    breakdown: Dict[str, float]
    #: Charged seconds per ledger shard ("" for a standalone ledger) — the
    #: per-node attribution of this transfer's cost.
    node_seconds: Dict[str, float]


class TransferMetrics(TypedRecord, _MetricsFields):
    """Measurements for one logical data transfer (or one fan-out branch).

    An immutable tuple record (see :class:`~repro.record.TypedRecord`);
    ``breakdown`` and ``node_seconds`` default to fresh empty dicts.
    """

    __slots__ = ()

    def __new__(
        cls,
        mode: str,
        payload_bytes: int,
        total_latency_s: float,
        serialization_s: float,
        wasm_io_s: float,
        transfer_s: float,
        cpu_user_s: float,
        cpu_kernel_s: float,
        copied_bytes: int,
        reference_bytes: int,
        syscalls: int,
        context_switches: int,
        peak_memory_mb: float,
        breakdown: Optional[Dict[str, float]] = None,
        node_seconds: Optional[Dict[str, float]] = None,
    ) -> "TransferMetrics":
        return _tuple_new(cls, (
            mode, payload_bytes, total_latency_s, serialization_s, wasm_io_s, transfer_s,
            cpu_user_s, cpu_kernel_s, copied_bytes, reference_bytes, syscalls,
            context_switches, peak_memory_mb,
            {} if breakdown is None else breakdown,
            {} if node_seconds is None else node_seconds,
        ))

    @property
    def cpu_total_s(self) -> float:
        return self.cpu_user_s + self.cpu_kernel_s

    @property
    def throughput_rps(self) -> float:
        """Requests per second, extrapolated from a single transfer (Sec. 6.1)."""
        if self.total_latency_s <= 0:
            return float("inf")
        return 1.0 / self.total_latency_s


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
# Members tested per charge, bound once (see repro.sim.ledger).
_SYSCALL = CostCategory.SYSCALL
_CONTEXT_SWITCH = CostCategory.CONTEXT_SWITCH


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

        The charges come from the ledger in timeline order (one shard's
        slice as it stands, several shards merge-sorted).  Each float
        metric collects its operands in that order and sums them with
        ``sum()`` at the end, so it equals the per-metric ``sum(<generator>)``
        scan exactly on every Python version (3.12's ``sum()`` compensates
        rounding, a running ``+=`` would not).  The breakdown and per-node
        dicts are running ``+=`` folds, as the scans they replace were.
        """
        ledger = self.ledger
        charges = ledger.charges_since(self._start)
        total = ledger.clock.now - self._start_time
        # Operands of each float metric, in charge order: serialization,
        # Wasm VM I/O, transfer, none (by category); user, kernel, none
        # (by CPU domain).
        serialization: List[float] = []
        wasm_io: List[float] = []
        transfer: List[float] = []
        user: List[float] = []
        kernel: List[float] = []
        by_metric = (serialization.append, wasm_io.append, transfer.append, [].append)
        by_domain = (user.append, kernel.append, [].append)
        copied = referenced = syscalls = switches = 0
        by_category: Dict[CostCategory, float] = {}
        node_seconds: Dict[str, float] = {}
        category_seconds = by_category.get
        seconds_of_node = node_seconds.get
        metric_slot = _CATEGORY_METRIC.__getitem__
        domain_slot = _DOMAIN_METRIC.__getitem__
        for category, seconds, domain, nbytes, was_copied, _, _, units, node, _ in charges:
            by_metric[metric_slot(category)](seconds)
            by_domain[domain_slot(domain)](seconds)
            if category is _SYSCALL:
                syscalls += units
            elif category is _CONTEXT_SWITCH:
                switches += 1
            if was_copied:
                copied += nbytes
            elif nbytes:
                referenced += nbytes
            by_category[category] = category_seconds(category, 0.0) + seconds
            node_seconds[node] = seconds_of_node(node, 0.0) + seconds
        return TransferMetrics(
            self.mode,
            self.payload_bytes,
            total,
            sum(serialization),
            sum(wasm_io),
            sum(transfer),
            sum(user),
            sum(kernel),
            copied,
            referenced,
            syscalls,
            switches,
            ledger.peak_memory_mb(),
            # Keyed by member while folding: same first-seen key order and
            # per-key addition order as keying by ``category.value``.
            {CATEGORY_NAMES[category]: seconds for category, seconds in by_category.items()},
            node_seconds,
        )

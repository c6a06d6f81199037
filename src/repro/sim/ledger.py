"""Cost ledgers: the places where simulated time, CPU and memory accrue.

Every substrate operation (a memcpy, a syscall, a serialization pass, a wire
transfer) records a :class:`Charge`.  The experiment harness then derives the
paper's metrics from the ledger:

* total latency           -> sum of wall-time charges,
* serialization latency   -> charges in the SERIALIZATION/DESERIALIZATION categories,
* Wasm VM I/O             -> charges in the WASM_IO category,
* CPU usage (user/kernel) -> CPU-seconds per :class:`CpuDomain`,
* RAM                     -> peak of the attached :class:`MemoryMeter`,
* copies                  -> bytes copied vs bytes moved by reference.

Accounting is *sharded per node*: each cluster node charges its own
:class:`NodeLedger`, and a :class:`ClusterLedger` aggregates the shards into
one view.  Charges carry ``(timestamp, node, seq)``, so the merged timeline
is a deterministic total order however the charges interleaved across
shards.  Code that only ever charges and queries one ledger (a kernel, a
Wasm runtime, a unit test) keeps using the plain :class:`CostLedger` it
always did.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.sim.clock import SimClock


class CostCategory(enum.Enum):
    """What kind of work a charge represents (the paper's breakdown axes)."""

    SERIALIZATION = "serialization"
    DESERIALIZATION = "deserialization"
    TRANSFER = "transfer"
    WASM_IO = "wasm_io"
    MEMCPY = "memcpy"
    SYSCALL = "syscall"
    CONTEXT_SWITCH = "context_switch"
    IPC = "ipc"
    NETWORK = "network"
    SPLICE = "splice"
    HTTP = "http"
    COLD_START = "cold_start"
    COMPUTE = "compute"
    OTHER = "other"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality; it replaces Enum's Python-level
    # ``hash(self._name_)`` on every dict probe the accounting path makes.
    __hash__ = object.__hash__


#: Categories counted as "serialization overhead" in the paper's plots.
SERIALIZATION_CATEGORIES = (CostCategory.SERIALIZATION, CostCategory.DESERIALIZATION)


class CpuDomain(enum.Enum):
    """Where CPU time is spent, mirroring cgroup user/system accounting."""

    USER = "user"
    KERNEL = "kernel"
    #: Work that consumes wall time but no local CPU (e.g. wire propagation).
    NONE = "none"

    __hash__ = object.__hash__  # identity hash, as for CostCategory


class LedgerError(ValueError):
    """Raised for invalid charges."""


class _ChargeFields(NamedTuple):
    """The fields of :class:`Charge`, which adds validation (a NamedTuple
    class body may not override ``__new__``)."""

    category: CostCategory
    seconds: float
    cpu_domain: CpuDomain = CpuDomain.USER
    nbytes: int = 0
    copied: bool = False
    label: str = ""
    timestamp: float = 0.0
    #: How many underlying operations this charge batches (e.g. syscalls).
    units: int = 1
    #: Node whose shard recorded the charge ("" for a standalone ledger).
    node: str = ""
    #: Per-shard append sequence; with ``(timestamp, node)`` it totally
    #: orders the merged cluster timeline.
    seq: int = 0


class Charge(_ChargeFields):
    """A single accounted operation: an immutable, validated tuple record."""

    __slots__ = ()

    def __new__(
        cls,
        category: CostCategory,
        seconds: float,
        cpu_domain: CpuDomain = CpuDomain.USER,
        nbytes: int = 0,
        copied: bool = False,
        label: str = "",
        timestamp: float = 0.0,
        units: int = 1,
        node: str = "",
        seq: int = 0,
    ) -> "Charge":
        if seconds < 0:
            raise LedgerError("charge duration must be non-negative, got %r" % seconds)
        if nbytes < 0:
            raise LedgerError("charge nbytes must be non-negative, got %r" % nbytes)
        if units < 1:
            raise LedgerError("charge units must be >= 1, got %r" % units)
        return tuple.__new__(
            cls,
            (category, seconds, cpu_domain, nbytes, copied, label, timestamp, units, node, seq),
        )


class _PeakTotal:
    """The running sum of one ledger's meter peaks, shared with its meters.

    Meters hold this cell rather than the ledger, so no reference cycle
    keeps a finished ledger (and every charge on it) alive until the
    cyclic garbage collector happens to run.
    """

    __slots__ = ("bytes",)

    def __init__(self) -> None:
        self.bytes = 0


class MemoryMeter:
    """Tracks resident memory of one sandbox (container or Wasm VM).

    The meter follows a simple high-watermark model: allocations raise the
    current level, frees lower it, and ``peak_bytes`` records the maximum.
    A meter created by :meth:`CostLedger.meter` also keeps that ledger's
    running peak total in step whenever its own peak moves, until the
    ledger's :meth:`~CostLedger.reset` detaches it.
    """

    def __init__(self, baseline_bytes: int = 0, name: str = "") -> None:
        if baseline_bytes < 0:
            raise LedgerError("baseline_bytes must be non-negative")
        self.name = name
        self._baseline = int(baseline_bytes)
        self._current = int(baseline_bytes)
        self._peak = int(baseline_bytes)
        #: The peak total of the ledger that created this meter, if any.
        self._total: Optional[_PeakTotal] = None

    @property
    def current_bytes(self) -> int:
        return self._current

    @property
    def peak_bytes(self) -> int:
        return self._peak

    def allocate(self, nbytes: int) -> None:
        if nbytes < 0:
            raise LedgerError("cannot allocate a negative amount")
        current = self._current + nbytes
        self._current = current
        if current > self._peak:
            if self._total is not None:
                self._total.bytes += current - self._peak
            self._peak = current

    def free(self, nbytes: int) -> None:
        """Release ``nbytes`` of a previous allocation.

        Freeing more than is currently allocated above the baseline is an
        accounting bug (a double free, or a free with no matching allocate),
        not a rounding artefact — silently clamping to the baseline would
        mask it, so it raises instead (mirroring
        ``IngressGateway.release`` on double-release).
        """
        if nbytes < 0:
            raise LedgerError("cannot free a negative amount")
        allocated = self._current - self._baseline
        if nbytes > allocated:
            raise LedgerError(
                "meter %r cannot free %d bytes: only %d allocated above the "
                "baseline (double free?)" % (self.name, nbytes, allocated)
            )
        self._current -= nbytes

    def reset(self) -> None:
        if self._total is not None:
            self._total.bytes -= self._peak - self._baseline
        self._current = self._baseline
        self._peak = self._baseline


class CostLedger:
    """Accumulates charges and advances an optional simulated clock.

    Parameters
    ----------
    clock:
        Shared simulated clock; wall-time charges advance it.  When omitted a
        private clock is created.
    """

    #: Node label stamped onto charges ("" for a standalone ledger).
    node_name: str = ""

    def __init__(self, clock: Optional[SimClock] = None, name: str = "") -> None:
        self.name = name
        self.clock = clock if clock is not None else SimClock()
        self._charges: List[Charge] = []
        self._meters: Dict[str, MemoryMeter] = {}
        self._copied_bytes = 0
        self._reference_bytes = 0
        self._syscalls = 0
        self._context_switches = 0
        # Running totals, maintained in charge order so each equals the
        # equivalent left-to-right scan bit-for-bit.  They turn
        # total_seconds()/seconds(cat)/cpu_seconds() from O(charges) scans
        # into O(1) lookups — the scans were a hidden quadratic for callers
        # polling totals while charging (e.g. cold-start deltas per replica).
        self._total_seconds = 0.0
        self._category_seconds: Dict[CostCategory, float] = {}
        self._domain_seconds: Dict[CpuDomain, float] = {}
        self._cpu_seconds_all = 0.0
        #: Sum of the attached meters' peaks, kept by the meters themselves.
        self._peak_total = _PeakTotal()

    # -- recording -------------------------------------------------------------

    def charge(
        self,
        category: CostCategory,
        seconds: float,
        *,
        cpu_domain: CpuDomain = CpuDomain.USER,
        nbytes: int = 0,
        copied: bool = False,
        label: str = "",
        wall_time: bool = True,
        units: int = 1,
    ) -> Charge:
        """Record one operation.

        ``wall_time=False`` records CPU/byte accounting without advancing the
        clock — used for work that overlaps another already-charged wait (for
        example the receiver-side copy that proceeds while the wire is busy).
        ``units`` records how many underlying operations the charge batches
        (e.g. chunked syscalls); every unit counts as one syscall.
        """
        charges = self._charges
        clock = self.clock
        entry = Charge(
            category, seconds, cpu_domain, nbytes, copied, label,
            clock.now, units, self.node_name, len(charges),
        )
        charges.append(entry)
        # Running totals fold in append order (see __init__).
        self._total_seconds += seconds
        totals = self._category_seconds
        totals[category] = totals.get(category, 0.0) + seconds
        totals = self._domain_seconds
        totals[cpu_domain] = totals.get(cpu_domain, 0.0) + seconds
        if cpu_domain is not CpuDomain.NONE:
            self._cpu_seconds_all += seconds
        if nbytes:
            if copied:
                self._copied_bytes += nbytes
            else:
                self._reference_bytes += nbytes
        if category is CostCategory.SYSCALL:
            self._syscalls += units
        elif category is CostCategory.CONTEXT_SWITCH:
            self._context_switches += 1
        if wall_time and seconds:
            clock.advance(seconds)
        return entry

    def count_syscalls(self, count: int) -> None:
        """Record additional syscalls batched into a single charge."""
        if count < 0:
            raise LedgerError("syscall count must be non-negative")
        self._syscalls += count

    def meter(self, name: str, baseline_bytes: int = 0) -> MemoryMeter:
        """Return (creating if needed) the memory meter for a sandbox."""
        meter = self._meters.get(name)
        if meter is None:
            meter = self._meters[name] = MemoryMeter(baseline_bytes=baseline_bytes, name=name)
            meter._total = self._peak_total
            self._peak_total.bytes += meter._peak
        return meter

    # -- queries -----------------------------------------------------------------

    @property
    def charges(self) -> Tuple[Charge, ...]:
        return tuple(self._charges)

    def snapshot(self) -> "LedgerSnapshot":
        """A position marker for :meth:`charges_since` (cheap, O(1))."""
        return LedgerSnapshot(positions=((self.node_name, len(self._charges)),))

    def charges_since(self, snapshot: "LedgerSnapshot") -> Tuple[Charge, ...]:
        """Charges recorded after ``snapshot`` was taken, in order."""
        start = dict(snapshot.positions).get(self.node_name, 0)
        return tuple(self._charges[start:])

    def __iter__(self) -> Iterator[Charge]:
        return iter(self._charges)

    def __len__(self) -> int:
        return len(self._charges)

    def total_seconds(self) -> float:
        """Total simulated wall time of all charges."""
        return self._total_seconds

    def seconds(self, *categories: CostCategory) -> float:
        if len(categories) == 1:
            # The running per-category total accumulates in exactly the order
            # a filtered scan would visit, so the fast path is bit-identical.
            return self._category_seconds.get(categories[0], 0.0)
        # Multiple categories interleave in the charge stream; summing the
        # per-category totals would reassociate the float additions, so keep
        # the scan for the (cold) multi-category calls.
        wanted = set(categories)
        return sum(c.seconds for c in self._charges if c.category in wanted)

    def cpu_seconds(self, domain: Optional[CpuDomain] = None) -> float:
        if domain is None:
            return self._cpu_seconds_all
        return self._domain_seconds.get(domain, 0.0)

    @property
    def copied_bytes(self) -> int:
        """Bytes that were physically copied."""
        return self._copied_bytes

    @property
    def reference_bytes(self) -> int:
        """Bytes moved by reference (zero-copy paths)."""
        return self._reference_bytes

    @property
    def syscalls(self) -> int:
        return self._syscalls

    @property
    def context_switches(self) -> int:
        return self._context_switches

    def peak_memory_bytes(self) -> int:
        """Sum of per-sandbox memory peaks (a running total, O(1))."""
        return self._peak_total.bytes

    def peak_memory_mb(self) -> float:
        return self.peak_memory_bytes() / (1024.0 * 1024.0)

    def meters(self) -> Dict[str, MemoryMeter]:
        return dict(self._meters)

    def breakdown(self) -> Dict[str, float]:
        """Seconds per category name (stable keys for reports)."""
        # _category_seconds shares both the first-seen key order and the
        # per-key accumulation order of the old full scan.
        return {
            category.value: seconds
            for category, seconds in self._category_seconds.items()
        }

    def reset(self) -> None:
        self._charges.clear()
        for meter in self._meters.values():
            meter._total = None  # a Cgroup may still hold it
        self._meters.clear()
        self._peak_total.bytes = 0
        self._copied_bytes = 0
        self._reference_bytes = 0
        self._syscalls = 0
        self._context_switches = 0
        self._total_seconds = 0.0
        self._category_seconds.clear()
        self._domain_seconds.clear()
        self._cpu_seconds_all = 0.0
        self.clock.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CostLedger(name=%r, charges=%d, total=%.6fs)" % (
            self.name,
            len(self._charges),
            self.total_seconds(),
        )


@dataclass(frozen=True)
class LedgerSnapshot:
    """Positions into each shard's charge stream at one instant.

    Taken before a measured interval and handed back to
    :meth:`CostLedger.charges_since` /
    :meth:`ClusterLedger.charges_since`, it brackets exactly the charges
    recorded inside the interval regardless of which shard they landed on —
    the sharded replacement for slicing one global append log.
    """

    positions: Tuple[Tuple[str, int], ...]


#: The deterministic total order of the merged cluster timeline.
_merge_key = operator.attrgetter("timestamp", "node", "seq")


class NodeLedger(CostLedger):
    """One node's cost shard.

    A :class:`NodeLedger` is a plain :class:`CostLedger` that knows which
    node it accounts for: every charge is stamped with the node name and a
    per-shard sequence number, so the shards merge into one deterministic
    cluster timeline.
    Shard names are ``ledger:<node>`` and must be unique within a cluster.
    """

    def __init__(self, node_name: str, clock: Optional[SimClock] = None) -> None:
        if not node_name:
            raise LedgerError("a node ledger needs a non-empty node name")
        super().__init__(clock=clock, name="ledger:%s" % node_name)
        self.node_name = node_name


class ClusterLedger:
    """The cluster view over per-node ledger shards.

    The cluster ledger *is not* an append log: every node charges its own
    :class:`NodeLedger` (no contention on one append path), and this view
    aggregates on demand.  ``charges`` presents the merged timeline in the
    deterministic ``(timestamp, node, seq)`` order; totals, CPU splits,
    byte counters and memory peaks sum across shards.  Cluster-scoped work
    that belongs to no node (ingress routing, gateway bookkeeping) charges
    the built-in ``cluster`` shard, which is also where the pre-shard
    ``CostLedger`` API (``charge``/``meter``/``count_syscalls``) lands, so
    existing callers keep working against ``Cluster.ledger`` unchanged.

    Every shard shares the cluster's simulated clock.

    Parameters
    ----------
    backing:
        Optional existing :class:`CostLedger` to adopt as the cluster
        shard — how a cluster wraps a caller-supplied ledger so charges the
        caller records on their handle stay visible in the merged view.
    """

    def __init__(self, name: str = "cluster", backing: Optional[CostLedger] = None) -> None:
        self.name = name
        if backing is not None:
            self.clock = backing.clock
            if not backing.node_name:
                backing.node_name = "cluster"
            self._cluster_shard = backing
        else:
            self.clock = SimClock()
            self._cluster_shard = CostLedger(clock=self.clock, name="%s:cluster" % name)
            self._cluster_shard.node_name = "cluster"
        self._shards: Dict[str, NodeLedger] = {}
        #: The cluster shard, then the node shards in creation order.
        self._shard_list: List[CostLedger] = [self._cluster_shard]
        self._merged_cache: Tuple[Charge, ...] = ()
        self._merged_cache_len = 0

    # -- shard management --------------------------------------------------------

    def shard(self, node_name: str) -> NodeLedger:
        """Create (and register) the shard for ``node_name``.

        Shard names are unique: two nodes can never silently share one
        accounting namespace.
        """
        self._check_unique(node_name)
        shard = NodeLedger(node_name=node_name, clock=self.clock)
        self._shards[node_name] = shard
        self._shard_list.append(shard)
        return shard

    def _check_unique(self, node_name: str) -> None:
        if not node_name:
            raise LedgerError("a cluster shard needs a non-empty node name")
        if node_name == self._cluster_shard.node_name:
            raise LedgerError("shard name %r is reserved for the cluster shard" % node_name)
        if node_name in self._shards:
            raise LedgerError(
                "duplicate ledger shard %r: two nodes cannot share one "
                "accounting namespace" % node_name
            )

    @property
    def cluster_shard(self) -> CostLedger:
        """The shard for cluster-scoped (node-less) charges."""
        return self._cluster_shard

    def shards(self) -> Dict[str, NodeLedger]:
        """Per-node shards keyed by node name (the cluster shard excluded)."""
        return dict(self._shards)

    def node_shard(self, node_name: str) -> NodeLedger:
        if node_name not in self._shards:
            raise LedgerError("no ledger shard for node %r" % node_name)
        return self._shards[node_name]

    # -- recording (cluster-scoped; the pre-shard CostLedger surface) -------------

    def charge(self, *args, **kwargs) -> Charge:
        return self._cluster_shard.charge(*args, **kwargs)

    def count_syscalls(self, count: int) -> None:
        self._cluster_shard.count_syscalls(count)

    def meter(self, name: str, baseline_bytes: int = 0) -> MemoryMeter:
        return self._cluster_shard.meter(name, baseline_bytes)

    # -- merged queries ----------------------------------------------------------

    @property
    def charges(self) -> Tuple[Charge, ...]:
        """The merged timeline, ordered by ``(timestamp, node, seq)``."""
        total = len(self)
        if total != self._merged_cache_len:
            merged: List[Charge] = []
            for shard in self._shard_list:
                merged.extend(shard._charges)
            merged.sort(key=_merge_key)
            self._merged_cache = tuple(merged)
            self._merged_cache_len = total
        return self._merged_cache

    def __iter__(self) -> Iterator[Charge]:
        return iter(self.charges)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shard_list)

    def snapshot(self) -> LedgerSnapshot:
        return LedgerSnapshot(
            positions=tuple(
                (shard.node_name, len(shard)) for shard in self._shard_list
            )
        )

    def charges_since(self, snapshot: LedgerSnapshot) -> Tuple[Charge, ...]:
        """Merged charges recorded after ``snapshot``, in timeline order.

        Shards created after the snapshot contribute from their beginning.
        """
        positions = dict(snapshot.positions)
        fresh: List[Charge] = []
        for shard in self._shard_list:
            fresh.extend(shard._charges[positions.get(shard.node_name, 0):])
        fresh.sort(key=_merge_key)
        return tuple(fresh)

    def total_seconds(self) -> float:
        return sum(shard.total_seconds() for shard in self._shard_list)

    def seconds(self, *categories: CostCategory) -> float:
        return sum(shard.seconds(*categories) for shard in self._shard_list)

    def cpu_seconds(self, domain: Optional[CpuDomain] = None) -> float:
        return sum(shard.cpu_seconds(domain) for shard in self._shard_list)

    @property
    def copied_bytes(self) -> int:
        return sum(shard.copied_bytes for shard in self._shard_list)

    @property
    def reference_bytes(self) -> int:
        return sum(shard.reference_bytes for shard in self._shard_list)

    @property
    def syscalls(self) -> int:
        return sum(shard.syscalls for shard in self._shard_list)

    @property
    def context_switches(self) -> int:
        return sum(shard.context_switches for shard in self._shard_list)

    def peak_memory_bytes(self) -> int:
        """Cluster RAM: per-node peaks aggregate (sum of shard peaks)."""
        return sum(shard._peak_total.bytes for shard in self._shard_list)

    def peak_memory_mb(self) -> float:
        return self.peak_memory_bytes() / (1024.0 * 1024.0)

    def meters(self) -> Dict[str, MemoryMeter]:
        out: Dict[str, MemoryMeter] = {}
        for shard in self._shard_list:
            out.update(shard.meters())
        return out

    def breakdown(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for shard in self._shard_list:
            for key, value in shard.breakdown().items():
                out[key] = out.get(key, 0.0) + value
        return out

    def reset(self) -> None:
        for shard in self._shard_list:
            shard.reset()  # resetting the shared clock repeatedly is harmless
        self._merged_cache = ()
        self._merged_cache_len = 0
        self.clock.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ClusterLedger(name=%r, shards=%d, charges=%d)" % (
            self.name,
            len(self._shards),
            len(self),
        )

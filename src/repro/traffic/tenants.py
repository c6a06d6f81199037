"""Multi-tenant traffic: tenant specs, capacity arbitration, rollups.

Middleware's defining concern is fair multiplexing of concurrent
applications over shared infrastructure; this module gives the traffic
engine the vocabulary for it.  A :class:`TenantSpec` names one tenant: the
function it invokes, the runtime mode serving it, the arrival process
generating its requests and the weight the gateway's fair queue grants it.
A :class:`CapacityArbiter` splits the shared cluster's execution slots
(cores) across tenants in weight proportion, so one tenant's autoscaler
cannot starve another's guaranteed share.  A :class:`MultiTenantSummary`
holds the per-tenant :class:`~repro.traffic.slo.TrafficSummary` rollups plus
a cluster-wide aggregate, ready for the report and the CSV/JSON exporters.

Seeds: tenants that do not pin an explicit seed derive one from the run's
base seed and their name (:func:`derived_seed`), so every tenant sees an
independent, reproducible stream and adding a tenant never perturbs the
arrivals of the others.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.platform.gateway import TenantQueueStats
from repro.traffic.arrivals import ARRIVAL_PATTERNS, ArrivalProcess, Request, make_arrivals
from repro.traffic.classes import (
    RequestClass,
    assign_classes,
    json_number,
    parse_classes,
    read_json_array,
    validate_mix,
)
from repro.traffic.slo import TrafficSummary


class TenantError(ValueError):
    """Raised for invalid tenant specifications or configs."""


def derived_seed(base_seed: int, name: str) -> int:
    """A per-tenant seed derived deterministically from a base seed.

    CRC32 of the tenant name folded with the base seed: stable across
    processes and Python versions (unlike ``hash``), and distinct names give
    independent streams while the pair (base seed, name) always reproduces
    the same one.
    """
    return (zlib.crc32(name.encode("utf-8")) ^ (base_seed * 0x9E3779B1)) & 0x7FFFFFFF


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a shared-cluster traffic run."""

    name: str
    #: Runtime mode serving this tenant (one of ``TRAFFIC_MODES``).
    mode: str = "roadrunner-user"
    #: Fair-queueing weight at the gateway (share under saturation).
    weight: int = 1
    #: Arrival process generating the tenant's request stream, or ...
    arrivals: Optional[ArrivalProcess] = None
    #: ... an explicit request list (exactly one of the two must be set).
    requests: Optional[Tuple[Request, ...]] = None
    #: Function name the tenant invokes; defaults to the tenant name.
    function: Optional[str] = None
    #: Pattern label for reports; defaults to the arrival process's name.
    pattern: Optional[str] = None
    #: Scheduling-class mix stamped onto the stream (empty = single class).
    classes: Tuple[RequestClass, ...] = ()
    #: Per-replica RSS override in MB (``None`` = the runtime profile's
    #: default baseline; only meaningful when the memory model is active).
    rss_mb: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise TenantError("tenant name must be non-empty")
        if self.weight < 1:
            raise TenantError("tenant %r: weight must be >= 1" % self.name)
        if self.rss_mb is not None and self.rss_mb <= 0:
            raise TenantError("tenant %r: rss_mb must be positive" % self.name)
        if (self.arrivals is None) == (self.requests is None):
            raise TenantError(
                "tenant %r needs exactly one of arrivals or requests" % self.name
            )
        object.__setattr__(self, "classes", validate_mix(self.classes))

    @property
    def function_name(self) -> str:
        return self.function or self.name

    @property
    def pattern_name(self) -> str:
        if self.pattern:
            return self.pattern
        if self.arrivals is not None:
            return self.arrivals.name
        return "trace"

    @property
    def class_names(self) -> Tuple[str, ...]:
        """Declared class names (for zero-request rows in the SLO rollup)."""
        return tuple(cls.name for cls in self.classes)

    def generate(self) -> List[Request]:
        """The tenant's request stream, retagged with its function name.

        A declared class mix is stamped on deterministically: the class
        RNG seed derives from the arrival seed (or zero for explicit
        request lists) and the tenant name, so identical specs always
        produce identically classed streams.  Each request is built at
        most once: a classed stream is retagged as it is stamped.
        """
        base = list(self.requests) if self.requests is not None else self.arrivals.generate()
        function = self.function_name
        if self.classes:
            seed = derived_seed(getattr(self.arrivals, "seed", 0) or 0, self.name + "/classes")
            return assign_classes(base, self.classes, seed=seed, function=function)
        return [
            request
            if request.function == function
            else Request(
                request.request_id,
                request.arrival_s,
                function,
                request.payload_bytes,
                request.request_class,
                request.priority,
                request.deadline_s,
                request.hard,
            )
            for request in base
        ]


class CapacityArbiter:
    """Weight-proportional split of the cluster's schedulable replica slots.

    ``capacity`` is the number of replicas the cluster will host — its core
    count, possibly oversubscribed (replicas are cheap processes; cores are
    the contended execution resource).  Guarantees are the largest-remainder
    apportionment of ``capacity`` by weight, so they sum exactly to capacity.

    Reservations follow *demand*: a tenant's unmet guarantee is only held
    back from others while that tenant has work wanting replicas, so an
    idle tenant's share is lendable (work conservation) and a tenant whose
    guarantee rounded to zero can still borrow unclaimed slots.  Because
    replicas are never preempted, a waking tenant reclaims its guarantee
    gradually — as borrowers' keep-alives expire — rather than instantly;
    with more tenants than slots, zero-guarantee tenants are served only
    opportunistically.  Without a demand map, ``grant`` falls back to
    reserving every unmet guarantee (the conservative hard split).
    """

    def __init__(self, capacity: int, weights: Mapping[str, int]) -> None:
        if capacity < 1:
            raise TenantError("capacity must be >= 1")
        if not weights:
            raise TenantError("need at least one tenant weight")
        if any(weight < 1 for weight in weights.values()):
            raise TenantError("tenant weights must be >= 1")
        self.capacity = capacity
        self.weights = dict(weights)
        # Largest-remainder apportionment: floor shares first, then the
        # leftover slots one by one to the largest fractional remainders
        # (ties to the heavier, then earlier-registered tenant).  Guarantees
        # sum exactly to capacity and are independent of dict order.
        total = sum(self.weights.values())
        order = list(self.weights)
        self.guaranteed: Dict[str, int] = {
            name: (capacity * self.weights[name]) // total for name in order
        }
        leftover = capacity - sum(self.guaranteed.values())
        by_remainder = sorted(
            order,
            key=lambda name: (
                -((capacity * self.weights[name]) % total),
                -self.weights[name],
                order.index(name),
            ),
        )
        for name in by_remainder[:leftover]:
            self.guaranteed[name] += 1

    def grant(
        self,
        tenant: str,
        requested: int,
        current: Mapping[str, int],
        demand: Optional[Mapping[str, int]] = None,
    ) -> int:
        """How many of ``requested`` new slots ``tenant`` may claim now.

        ``demand`` maps each tenant to the replicas its load currently
        wants (queued + in flight); a tenant's unmet guarantee is reserved
        only up to its demand.  ``None`` reserves every unmet guarantee.
        """
        if tenant not in self.weights:
            raise TenantError("unknown tenant %r" % tenant)
        if requested <= 0:
            return 0
        used = sum(current.values())
        free = max(0, self.capacity - used)
        if free == 0:
            return 0
        mine = current.get(tenant, 0)
        within = max(0, self.guaranteed[tenant] - mine)
        reserved = 0
        for name in self.weights:
            if name == tenant:
                continue
            claim = self.guaranteed[name]
            if demand is not None:
                claim = min(claim, demand.get(name, 0))
            reserved += max(0, claim - current.get(name, 0))
        granted = min(requested, free, within)
        extra = min(requested - granted, max(0, free - granted - reserved))
        return granted + max(0, extra)


@dataclass(frozen=True)
class NodeUsage:
    """One ledger shard's slice of a traffic run (the per-node cost rollup).

    The engine reads these off the cluster ledger's per-node shards after a
    run: how many charges a node recorded, the simulated seconds and CPU
    seconds it accounted, and its memory peak.  The ``cluster`` row holds
    node-less work (ingress routing at the gateway).
    """

    node: str
    charges: int
    total_seconds: float
    cpu_seconds: float
    peak_memory_mb: float


@dataclass(frozen=True)
class MultiTenantSummary:
    """Everything one shared-cluster multi-tenant run produced."""

    fairness: str
    weights: Mapping[str, int]
    #: Per-tenant rollups, keyed by tenant name.
    tenants: Dict[str, TrafficSummary]
    #: Cluster-wide aggregate over every tenant's requests and replicas.
    cluster: TrafficSummary
    #: Gateway admission accounting per tenant (drops/timeouts happen there).
    queue_stats: Dict[str, TenantQueueStats] = field(default_factory=dict)
    #: Per-node cost rollups from the sharded cluster ledger, keyed by node.
    nodes: Dict[str, NodeUsage] = field(default_factory=dict)
    #: Gateway middleware counters per stage ({} when no pipeline ran).
    middleware: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def tenant(self, name: str) -> TrafficSummary:
        if name not in self.tenants:
            raise TenantError(
                "no tenant %r in this run (have: %s)" % (name, ", ".join(sorted(self.tenants)))
            )
        return self.tenants[name]


# -- config parsing (the ``repro traffic --tenants`` format) ------------------------

#: Recognised keys of one tenant object in a ``--tenants`` config.
_TENANT_KEYS = frozenset(
    {
        "name", "pattern", "rps", "duration", "payload_mb", "seed", "weight",
        "mode", "burst_on", "burst_off", "period", "trough_rps", "classes",
        "rss_mb",
    }
)


def parse_tenants(
    source: str,
    default_mode: str = "roadrunner-user",
    base_seed: int = 0,
    default_duration: float = 30.0,
    default_classes: Tuple[RequestClass, ...] = (),
) -> List[TenantSpec]:
    """Parse a ``--tenants`` config: a JSON array, inline or a file path.

    Each element describes one tenant::

        {"name": "steady", "pattern": "poisson", "rps": 20, "duration": 30,
         "weight": 1, "mode": "roadrunner-user", "payload_mb": 1.0}

    ``pattern`` is ``poisson`` (default), ``bursty`` (``burst_on``/
    ``burst_off`` windows) or ``diurnal`` (``period``, ``trough_rps``).
    ``seed`` is optional: omitted, it derives from ``base_seed`` and the
    tenant name, so streams stay independent and reproducible.
    ``classes`` is an optional scheduling-class mix in the ``--classes``
    format (see :func:`repro.traffic.classes.parse_classes`); tenants
    without one inherit ``default_classes``.
    """
    raw = read_json_array(source, "tenants config", TenantError)
    specs: List[TenantSpec] = []
    for index, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise TenantError("tenant #%d must be a JSON object" % index)
        unknown = sorted(set(entry) - _TENANT_KEYS)
        if unknown:
            raise TenantError("tenant #%d has unknown keys: %s" % (index, ", ".join(unknown)))
        if "name" not in entry:
            raise TenantError("tenant #%d is missing 'name'" % index)
        name = str(entry["name"])
        pattern = str(entry.get("pattern", "poisson"))

        def number(key, default=None, integer=False):
            return json_number(entry, key, "tenant %r" % name, TenantError, integer, default)

        rps = float(number("rps", 20.0))
        duration = float(number("duration", default_duration))
        payload_mb = float(number("payload_mb", 1.0))
        seed = number("seed", derived_seed(base_seed, name), integer=True)
        weight = number("weight", 1, integer=True)
        burst_on = float(number("burst_on", 5.0))
        burst_off = float(number("burst_off", 15.0))
        period = float(number("period", 60.0))
        trough_rps = number("trough_rps")
        rss_mb = None if entry.get("rss_mb") is None else float(number("rss_mb"))
        if pattern not in ARRIVAL_PATTERNS:
            raise TenantError(
                "tenant %r: unknown pattern %r (use poisson, bursty or diurnal)" % (name, pattern)
            )
        arrivals = make_arrivals(
            pattern,
            rps,
            duration,
            on_s=burst_on,
            off_s=burst_off,
            period_s=period,
            trough_rps=None if trough_rps is None else float(trough_rps),
            function=name,
            payload_mb=payload_mb,
            seed=seed,
        )
        classes = default_classes
        if entry.get("classes") is not None:
            try:
                # A string is the --classes format itself (inline JSON or a
                # file path); an inline array is parsed as already decoded.
                classes = parse_classes(entry["classes"])
            except ValueError as exc:
                raise TenantError("tenant %r: invalid classes: %s" % (name, exc))
        specs.append(
            TenantSpec(
                name=name,
                mode=str(entry.get("mode", default_mode)),
                weight=weight,
                arrivals=arrivals,
                classes=classes,
                rss_mb=rss_mb,
            )
        )
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise TenantError("tenant names must be unique, got %s" % names)
    if "cluster" in names:
        raise TenantError("tenant name 'cluster' is reserved for the cluster-wide rollup")
    return specs

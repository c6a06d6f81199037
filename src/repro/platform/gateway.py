"""Platform ingress: how clients reach short-lived serverless functions.

"Since serverless functions are short-lived by design, a single function
cannot be directly addressed.  Therefore, clients rely on the platform
ingress and Load Balancers to access the serverless function" (Sec. 1).  The
gateway models that front door: it keeps a pool of replicas per function,
routes each client request to the least-loaded one,
scales from zero by paying the runtime's cold-start cost, and charges the
ingress routing overhead per request.

The traffic engine (:mod:`repro.traffic`) drives the gateway under sustained
load: :meth:`IngressGateway.select_replica` is the admission hook that routes
only to replicas the engine considers ready and under their concurrency
limit (:meth:`IngressGateway.release_state` hands each back), and
:meth:`IngressGateway.remove_replica` is the scale-down hook the autoscaler
uses to reclaim idle replicas after their keep-alive expires.

Admission queueing also lives here: :class:`FairQueue` keeps one bounded
queue per tenant and decides dispatch order either globally FIFO (arrival
order, tenant-blind) or by weighted fair queueing, where each tenant's
share of dispatches converges to its weight under saturation and a
starvation guard bounds how long any backlogged tenant can be passed over.
Weighted fair queueing comes in two flavours: per-request tags (``wfq``,
every dispatch costs one virtual unit) and cost-weighted tags
(``wfq-cost``, every dispatch costs the request's estimated service time,
fed back by the engine as an online per-tenant EWMA), which keeps core
shares proportional to weights even when tenants' payload sizes — and
therefore per-request costs — are wildly unequal.  Within one tenant's
queue, dispatch is either arrival order (the default) or
earliest-deadline-first with priority tiers (:class:`IntraTenantOrder`).
The queue stores opaque items, so the gateway stays independent of the
traffic subsystem's request type.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.platform.deployment import DeployedFunction
from repro.platform.function import FunctionSpec
from repro.platform.orchestrator import Orchestrator
from repro.sim.ledger import CostCategory, CpuDomain


class GatewayError(RuntimeError):
    """Raised for unknown functions or invalid gateway operations."""


class FairnessPolicy(enum.Enum):
    """How queued requests from different tenants are ordered for dispatch."""

    FIFO = "fifo"          # one logical global queue: strict arrival order
    WFQ = "wfq"            # weighted fair queueing, one virtual unit per request
    WFQ_COST = "wfq-cost"  # weighted fair queueing, tags advance by service cost


class IntraTenantOrder(enum.Enum):
    """How requests *within* one tenant's queue are ordered for dispatch."""

    FIFO = "fifo"  # arrival order (the classic single-class queue)
    EDF = "edf"    # priority tiers, earliest deadline first within a tier


@dataclass
class TenantQueueStats:
    """Per-tenant admission accounting (drops, timeouts and sheds happen here)."""

    tenant: str
    weight: int
    enqueued: int = 0
    dispatched: int = 0
    dropped: int = 0
    timed_out: int = 0
    #: Hard-deadline admission control: requests removed at dispatch time
    #: because their deadline could no longer be met.
    shed: int = 0


@dataclass(frozen=True, order=True)
class _Entry:
    """One queued item with its scheduling keys, ordered for the heap.

    Comparison runs left to right and ``seq`` is globally unique, so two
    entries never compare beyond it — the opaque ``item`` is never compared
    — and every ordering decision is a deterministic total order.  Under
    :attr:`IntraTenantOrder.FIFO` both class keys are forced to constants,
    so the heap degenerates to exact arrival order whatever priorities or
    deadlines the items carry.
    """

    priority: int
    deadline: float  # absolute deadline; +inf when the item has none
    seq: int
    item_id: int = field(compare=False)
    item: object = field(compare=False)
    cost: float = field(compare=False)  # service-cost snapshot at enqueue


@dataclass
class _TenantQueue:
    """One tenant's bounded queue plus its fair-queueing state."""

    name: str
    weight: int
    index: int  # registration order: the deterministic tie-breaker
    items: List[_Entry] = field(default_factory=list)  # heap
    live: Set[int] = field(default_factory=set)
    finish_tag: float = 0.0
    skipped: int = 0
    cost_estimate: Optional[float] = None  # EWMA of measured service times
    stats: TenantQueueStats = None  # type: ignore[assignment]


#: Weight of the newest measurement in a tenant's service-cost EWMA.
COST_EWMA_ALPHA = 0.3


class FairQueue:
    """Per-tenant admission queues with FIFO or weighted-fair dispatch.

    WFQ is the classic virtual-time scheme: each tenant carries a finish tag
    advanced per dispatch, and the backlogged tenant with the smallest tag
    goes first.  Under plain ``wfq`` the tag advances by ``1/weight`` — fine
    while requests within one tenant are near-uniform in cost.  Under
    ``wfq-cost`` it advances by ``cost/weight``, where the cost is the
    request's estimated service time snapshotted at enqueue from the
    tenant's online EWMA (:meth:`record_service_cost`, fed back by the
    engine), so core *time* — not request count — converges to the weight
    split when tenants' payload sizes are wildly unequal.  A tenant that
    was idle re-enters at the current virtual time, so silence banks no
    credit — a bursty tenant cannot monopolise the cluster on arrival.  The
    starvation guard promotes any backlogged tenant that ``starvation_guard``
    consecutive dispatches have passed over, bounding worst-case head-of-line
    wait even under extreme weight ratios.

    Within one tenant's queue, :attr:`IntraTenantOrder.FIFO` serves arrival
    order and :attr:`IntraTenantOrder.EDF` serves priority tiers (lower tier
    first), earliest absolute deadline within a tier, deadline-less items
    last; arrival order breaks all remaining ties, so seeded runs are
    byte-reproducible.

    Cancelled items (queue timeouts) are removed lazily: the id leaves
    ``live`` immediately and the ghost entry is discarded when it reaches
    the head — except that a cancelled *head* is pruned eagerly, so the
    next dispatch decision (head arrival seq for global FIFO, head deadline
    for EDF, head cost for cost-weighted tags) never keys off a ghost.

    A running count of live items across all tenants backs
    :meth:`total_depth` and lets :meth:`dispatch_order` answer an empty
    queue without visiting any tenant.  An item that would be dispatched
    (or shed) the moment it reaches an empty queue is accounted by
    :meth:`pass_through` instead, without touching the heap.
    """

    def __init__(
        self,
        policy: FairnessPolicy = FairnessPolicy.FIFO,
        starvation_guard: int = 32,
        intra: IntraTenantOrder = IntraTenantOrder.FIFO,
    ) -> None:
        if starvation_guard < 1:
            raise GatewayError("starvation_guard must be >= 1")
        self.policy = policy
        self.starvation_guard = starvation_guard
        self.intra = intra
        self._tenants: Dict[str, _TenantQueue] = {}
        self._seq = itertools.count()
        self._virtual = 0.0
        self._depth = 0  # live items across tenants: sum of len(queue.live)

    # -- tenant management ---------------------------------------------------------

    def register_tenant(self, tenant: str, weight: int = 1) -> None:
        if weight < 1:
            raise GatewayError("tenant weight must be >= 1, got %r" % weight)
        if tenant in self._tenants:
            raise GatewayError("tenant %r is already registered" % tenant)
        queue = _TenantQueue(name=tenant, weight=weight, index=len(self._tenants))
        queue.stats = TenantQueueStats(tenant=tenant, weight=weight)
        self._tenants[tenant] = queue

    @property
    def tenants(self) -> List[str]:
        return list(self._tenants)

    def weights(self) -> Dict[str, int]:
        return {name: queue.weight for name, queue in self._tenants.items()}

    def stats(self, tenant: str) -> TenantQueueStats:
        return self._require(tenant).stats

    def all_stats(self) -> Dict[str, TenantQueueStats]:
        return {name: queue.stats for name, queue in self._tenants.items()}

    # -- service-cost feedback -----------------------------------------------------

    #: Floor for measured service costs: a zero-duration request (empty
    #: payload, free cost model) is a legitimate measurement, but a zero
    #: EWMA would make ``wfq-cost`` tags stop advancing entirely.
    MIN_SERVICE_COST_S = 1e-9

    def record_service_cost(self, tenant: str, service_s: float) -> None:
        """Fold one measured service time into the tenant's cost EWMA.

        The engine calls this at dispatch, when the request's deterministic
        service time is known; later enqueues snapshot the updated estimate.
        Zero-duration measurements clamp to :attr:`MIN_SERVICE_COST_S`
        rather than raising — only a genuinely negative cost is an error.
        """
        if service_s < 0:
            raise GatewayError("service cost must be non-negative, got %r" % service_s)
        service_s = max(service_s, self.MIN_SERVICE_COST_S)
        queue = self._require(tenant)
        if queue.cost_estimate is None:
            queue.cost_estimate = service_s
        else:
            queue.cost_estimate = (
                COST_EWMA_ALPHA * service_s + (1.0 - COST_EWMA_ALPHA) * queue.cost_estimate
            )

    def cost_estimate(self, tenant: str) -> Optional[float]:
        """The tenant's current EWMA service-time estimate (``None`` = no data)."""
        return self._require(tenant).cost_estimate

    def _default_cost(self) -> float:
        """Cost snapshot for a tenant with no measurements yet.

        The mean of the other tenants' estimates: a cold tenant is assumed
        to cost an average request, keeping its tags in the same *unit*
        (seconds) as everyone else's — a fixed 1.0 against millisecond
        estimates would debit the newcomer hundreds of requests per
        dispatch.  One virtual unit only before any measurement exists.
        """
        known = [
            queue.cost_estimate
            for queue in self._tenants.values()
            if queue.cost_estimate is not None
        ]
        return sum(known) / len(known) if known else 1.0

    # -- queue operations ----------------------------------------------------------

    def enqueue(
        self,
        tenant: str,
        item_id: int,
        item: object,
        limit: Optional[int] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
    ) -> bool:
        """Admit one item; ``False`` means the tenant's queue was full (drop).

        ``priority`` (lower = more urgent) and ``deadline`` (absolute, in
        engine time) only order dispatch under :attr:`IntraTenantOrder.EDF`.
        The item's ``wfq-cost`` tag advance is the tenant's EWMA estimate,
        or the fleet mean (see :meth:`_default_cost`) before the tenant's
        first measurement arrives.
        """
        queue = self._require(tenant)
        if limit is not None and len(queue.live) >= limit:
            queue.stats.dropped += 1
            return False
        if not queue.live and self.policy is not FairnessPolicy.FIFO:
            # Re-entering after idleness: catch up to the current virtual
            # time so the backlog built by others is not leapfrogged, and
            # shed any stale skip count — a fresh backlog has earned no
            # starvation-guard promotion.
            queue.finish_tag = max(queue.finish_tag, self._virtual)
            queue.skipped = 0
        cost = queue.cost_estimate if queue.cost_estimate is not None else self._default_cost()
        if self.intra is IntraTenantOrder.EDF:
            entry = _Entry(
                priority=priority,
                deadline=deadline if deadline is not None else math.inf,
                seq=next(self._seq),
                item_id=item_id,
                item=item,
                cost=cost,
            )
        else:
            # Constant class keys: the heap orders purely by arrival seq.
            entry = _Entry(
                priority=0, deadline=0.0, seq=next(self._seq),
                item_id=item_id, item=item, cost=cost,
            )
        heapq.heappush(queue.items, entry)
        queue.live.add(item_id)
        self._depth += 1
        queue.stats.enqueued += 1
        return True

    def cancel(self, tenant: str, item_id: int) -> bool:
        """Remove a waiting item (queue timeout); ``False`` if already gone."""
        queue = self._require(tenant)
        if item_id not in queue.live:
            return False
        queue.live.discard(item_id)
        self._depth -= 1
        queue.stats.timed_out += 1
        # Eagerly prune a cancelled head: leaving the ghost in place would
        # let the next dispatch decision key off its seq/deadline/cost until
        # some later traversal happened to discard it.
        self._prune(queue)
        return True

    def depth(self, tenant: str) -> int:
        return len(self._require(tenant).live)

    def is_queued(self, tenant: str, item_id: int) -> bool:
        """Whether ``item_id`` is still waiting (not dispatched/cancelled)."""
        return item_id in self._require(tenant).live

    def total_depth(self) -> int:
        return self._depth

    def dispatch_order(self) -> List[str]:
        """Backlogged tenants in the order dispatch should try them.

        Callers may serve a later tenant when an earlier one has no eligible
        replica (work conservation); committing a dispatch goes through
        :meth:`pop`, which is where tags, skip counters and stats advance.
        """
        if not self._depth:
            return []
        if len(self._tenants) == 1:
            # One tenant (the whole single-stream engine): every policy
            # reduces to "that tenant", which the count says is backlogged.
            (queue,) = self._tenants.values()
            return [queue.name]
        backlogged = [queue for queue in self._tenants.values() if queue.live]
        if self.policy is FairnessPolicy.FIFO:
            # With EDF inside a tenant, "arrival order" means the arrival
            # seq of whichever entry the tenant would dispatch next.
            backlogged.sort(key=lambda queue: self._head(queue).seq)
            return [queue.name for queue in backlogged]
        starved = [queue for queue in backlogged if queue.skipped >= self.starvation_guard]
        rest = [queue for queue in backlogged if queue.skipped < self.starvation_guard]
        # Equal virtual tags break by registration order (queue.index): the
        # order is a pure function of registration sequence and dispatch
        # history, never of dict iteration or hashing.
        starved.sort(key=lambda queue: (-queue.skipped, queue.finish_tag, queue.index))
        rest.sort(key=lambda queue: (queue.finish_tag, queue.index))
        return [queue.name for queue in starved + rest]

    def peek(self, tenant: str) -> object:
        """The item :meth:`pop` would dispatch next, without committing.

        Admission control looks here first: a hard-deadline request whose
        deadline can no longer be met is removed via :meth:`shed_head`
        instead of being popped, so shedding never advances fair-queueing
        tags or counts as a dispatch.
        """
        queue = self._require(tenant)
        entry = self._head(queue)
        if entry is None:
            raise GatewayError("tenant %r has no queued requests" % tenant)
        return entry.item

    def shed_head(self, tenant: str) -> object:
        """Remove the head item as shed (hard-deadline admission control).

        Unlike :meth:`pop`, shedding advances no virtual-time tag and resets
        no skip counter: the tenant consumed no service, so its place in the
        fair order is untouched.  Unlike :meth:`cancel`, the removal counts
        as ``shed`` — the operator-visible signal that admission control,
        not client impatience, refused the request.
        """
        queue = self._require(tenant)
        entry = self._head(queue)
        if entry is None:
            raise GatewayError("tenant %r has no queued requests" % tenant)
        heapq.heappop(queue.items)
        queue.live.discard(entry.item_id)
        self._depth -= 1
        queue.stats.shed += 1
        return entry.item

    def pop(self, tenant: str) -> object:
        """Commit one dispatch from ``tenant`` and return the item."""
        queue = self._require(tenant)
        if self._head(queue) is None:
            raise GatewayError("tenant %r has no queued requests" % tenant)
        entry = heapq.heappop(queue.items)
        queue.live.discard(entry.item_id)
        self._depth -= 1
        queue.stats.dispatched += 1
        if self.policy is not FairnessPolicy.FIFO:
            self._virtual = max(self._virtual, queue.finish_tag)
            advance = entry.cost if self.policy is FairnessPolicy.WFQ_COST else 1.0
            queue.finish_tag += advance / queue.weight
            queue.skipped = 0
            for other in self._tenants.values():
                if other is not queue and other.live:
                    other.skipped += 1
        return entry.item

    def pass_through(self, tenant: str, shed: bool = False) -> None:
        """Account one item that meets an empty queue and leaves it at once.

        Exactly :meth:`enqueue` followed by :meth:`pop` (or, with ``shed``,
        :meth:`shed_head`) on an empty queue — stats, the idle tenant's
        catch-up to the virtual time, the skip reset, the cost snapshot and
        the tag advance — without touching the heap.  The engine calls it
        for a request that finds a free replica on arrival.  Raises unless
        every tenant's queue is empty, since only then is the item the
        head :meth:`pop` would take.
        """
        if self._depth:
            raise GatewayError(
                "pass_through needs an empty queue; %d items are waiting" % self._depth
            )
        queue = self._require(tenant)
        stats = queue.stats
        stats.enqueued += 1
        if shed:
            stats.shed += 1
        else:
            stats.dispatched += 1
        if self.policy is FairnessPolicy.FIFO:
            return
        queue.finish_tag = max(queue.finish_tag, self._virtual)
        queue.skipped = 0
        if shed:
            return
        self._virtual = max(self._virtual, queue.finish_tag)
        if self.policy is FairnessPolicy.WFQ_COST:
            cost = queue.cost_estimate if queue.cost_estimate is not None else self._default_cost()
            queue.finish_tag += cost / queue.weight
        else:
            queue.finish_tag += 1.0 / queue.weight

    def drain(self, tenant: str) -> List[object]:
        """Evacuate every waiting item in dispatch order, without accounting.

        Used by federation when a region fails: the queued requests are not
        dispatched, dropped, timed out or shed *here* — they are re-routed to
        a surviving region, which does its own admission accounting.  Tags,
        skip counters and stats are therefore untouched; only the backlog is
        removed.  Returns ``(item_id, item)`` pairs in heap order.
        """
        queue = self._require(tenant)
        drained: List[object] = []
        while True:
            self._prune(queue)
            if not queue.items:
                break
            entry = heapq.heappop(queue.items)
            queue.live.discard(entry.item_id)
            self._depth -= 1
            drained.append((entry.item_id, entry.item))
        return drained

    # -- internals -----------------------------------------------------------------

    def _prune(self, queue: _TenantQueue) -> None:
        """Discard cancelled ghosts sitting at the heap head."""
        while queue.items and queue.items[0].item_id not in queue.live:
            heapq.heappop(queue.items)

    def _head(self, queue: _TenantQueue) -> Optional[_Entry]:
        """The next live entry, discarding cancelled ghosts on the way."""
        self._prune(queue)
        return queue.items[0] if queue.items else None

    def _require(self, tenant: str) -> _TenantQueue:
        if tenant not in self._tenants:
            raise GatewayError("tenant %r is not registered with the queue" % tenant)
        return self._tenants[tenant]


#: Fixed per-request ingress cost (routing table lookup, connection handling).
INGRESS_OVERHEAD_S = 250.0e-6


@dataclass
class _ReplicaState:
    deployed: DeployedFunction
    in_flight: int = 0
    served: int = 0
    #: Set when the replica leaves the pool, so releasing a held handle
    #: after scale-down raises instead of corrupting in-flight counts.
    retired: bool = False
    #: Opaque caller attachment: the traffic engine stores its own replica
    #: view here so :meth:`IngressGateway.select_replica` results map back
    #: without a name lookup.
    handle: Optional[object] = None
    #: The owning gateway's token and function name, so a handle released
    #: to another gateway or function raises instead of corrupting its
    #: counts.
    owner: Optional[object] = None
    function: str = ""


def _in_flight_of(state: _ReplicaState) -> int:
    return state.in_flight


class IngressGateway:
    """The platform's ingress / load-balancer pair."""

    def __init__(
        self,
        orchestrator: Orchestrator,
        fairness: FairnessPolicy = FairnessPolicy.FIFO,
        starvation_guard: int = 32,
        intra: IntraTenantOrder = IntraTenantOrder.FIFO,
    ) -> None:
        self.orchestrator = orchestrator
        #: Admission queues (per tenant); drivers register tenants and weights.
        self.queue = FairQueue(policy=fairness, starvation_guard=starvation_guard, intra=intra)
        self._pools: Dict[str, List[_ReplicaState]] = {}
        self._replica_serial: Dict[str, int] = {}
        self._deferred_ingress: Dict[str, int] = {}
        #: Requests in flight across every pool: the sum of every replica's
        #: ``in_flight``, kept at each site that changes one.
        self._in_flight = 0
        #: Identifies this gateway's replica states (see :meth:`release_state`).
        self._token = object()
        self.cold_starts = 0
        self.scale_downs = 0

    # -- pool management ----------------------------------------------------------

    def register(self, spec: FunctionSpec, replicas: int = 1, node_name: Optional[str] = None,
                 share_vm_key: Optional[str] = None, charge_cold_start: bool = True) -> List[DeployedFunction]:
        """Deploy ``replicas`` instances of ``spec`` and add them to the pool.

        Scale-from-zero is modelled by charging each replica's cold start at
        registration time (the paper's Fig. 2a costs).
        """
        if replicas < 1:
            raise GatewayError("replicas must be >= 1")
        nodes = list(self.orchestrator.cluster.nodes)
        if node_name is not None and node_name not in nodes:
            raise GatewayError("unknown node %r" % node_name)
        pool = self._pools.setdefault(spec.name, [])
        deployed_replicas: List[DeployedFunction] = []
        for _ in range(replicas):
            serial = self._replica_serial.get(spec.name, 0)
            self._replica_serial[spec.name] = serial + 1
            replica_spec = spec.renamed("%s-r%d" % (spec.name, serial))
            target_node = node_name or nodes[serial % len(nodes)]
            deployed = self.orchestrator.deploy(
                replica_spec,
                target_node,
                share_vm_key=share_vm_key,
                materialize=True,
                charge_cold_start=charge_cold_start,
            )
            deployed_replicas.append(deployed)
            if charge_cold_start:
                self.cold_starts += 1
        pool.extend(
            _ReplicaState(deployed=replica, owner=self._token, function=spec.name)
            for replica in deployed_replicas
        )
        return deployed_replicas

    def replicas(self, function: str) -> List[DeployedFunction]:
        return [state.deployed for state in self._require_pool(function)]

    def remove_replica(self, function: str, deployed: DeployedFunction) -> None:
        """Reclaim one replica (autoscaler keep-alive expiry).

        The replica must be idle: reclaiming a replica with requests in
        flight would strand them.
        """
        pool = self._require_pool(function)
        for index, state in enumerate(pool):
            if state.deployed is deployed:
                if state.in_flight > 0:
                    raise GatewayError(
                        "replica %r has %d requests in flight; drain before removal"
                        % (deployed.name, state.in_flight)
                    )
                state.retired = True
                del pool[index]
                self.orchestrator.undeploy(deployed.name)
                self.scale_downs += 1
                return
        raise GatewayError("replica %r does not belong to function %r" % (deployed.name, function))

    # -- routing --------------------------------------------------------------------

    def select_replica(
        self, function: str, candidates: Sequence[_ReplicaState]
    ) -> _ReplicaState:
        """Route one request to one of ``candidates``; return its state.

        ``candidates`` are the pool's :class:`_ReplicaState` handles (from
        :meth:`pool_states`) the caller considers available — warmed up,
        under their concurrency limit.  The least-loaded candidate wins, the
        first in pool order on a tie.  The per-request ingress ledger charge is *deferred*:
        the count accumulates per function and :meth:`flush_deferred_ingress`
        emits one batched charge per function, so million-request runs do
        not allocate a million Charge rows.  The caller gives the handle
        back with :meth:`release_state` when the request finishes.
        """
        if not candidates:
            raise GatewayError("no eligible replicas for function %r" % function)
        if len(candidates) == 1:
            state = candidates[0]
        else:
            state = min(candidates, key=_in_flight_of)
        state.in_flight += 1
        state.served += 1
        self._in_flight += 1
        self._deferred_ingress[function] = self._deferred_ingress.get(function, 0) + 1
        return state

    def release_state(self, function: str, state: _ReplicaState) -> None:
        """Mark a routed request as finished (load-balancer bookkeeping).

        Releasing a handle whose replica left the pool (a stale handle after
        scale-down), that belongs to another function or gateway, or that
        has nothing in flight (a double release) raises: each would
        otherwise decay silently into corrupted in-flight accounting, which
        the autoscaler then trusts.
        """
        if state.retired or state.owner is not self._token or state.function != function:
            raise GatewayError(
                "replica %r does not belong to function %r"
                % (state.deployed.name, function)
            )
        if state.in_flight <= 0:
            raise GatewayError(
                "replica %r has no requests in flight to release" % state.deployed.name
            )
        state.in_flight -= 1
        self._in_flight -= 1

    def flush_deferred_ingress(self) -> None:
        """Charge the ingress overhead accumulated by :meth:`select_replica`.

        One batched charge per function (``units`` = request count) keeps the
        ledger totals equal to per-request charging while the charge list
        stays O(functions).
        """
        deferred, self._deferred_ingress = self._deferred_ingress, {}
        ledger = self.orchestrator.cluster.ledger
        for function, count in deferred.items():
            ledger.charge(
                CostCategory.HTTP,
                count * INGRESS_OVERHEAD_S,
                cpu_domain=CpuDomain.USER,
                label="ingress:%s" % function,
                units=count,
            )

    def pool_states(self, function: str) -> List[_ReplicaState]:
        """The live per-replica states, in pool order (engine fast path)."""
        return self._require_pool(function)

    def served_per_replica(self, function: str) -> Dict[str, int]:
        return {state.deployed.name: state.served for state in self._require_pool(function)}

    def in_flight(self, function: str) -> Dict[str, int]:
        """Requests currently executing per replica (autoscaler load sample)."""
        return {state.deployed.name: state.in_flight for state in self._require_pool(function)}

    def total_in_flight(self, function: str) -> int:
        return sum(state.in_flight for state in self._require_pool(function))

    def in_flight_total(self) -> int:
        """Requests currently executing across every function's pool."""
        return self._in_flight

    def pool_size(self, function: str) -> int:
        return len(self._pools.get(function, []))

    def _require_pool(self, function: str) -> List[_ReplicaState]:
        if function not in self._pools or not self._pools[function]:
            raise GatewayError("function %r has no registered replicas" % function)
        return self._pools[function]

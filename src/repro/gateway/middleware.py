"""The composable middleware pipeline the ingress threads requests through.

Every request admitted by the platform crosses a chain of small, ordered
stages before it reaches the fair queue, and crosses them again (in reverse)
when it reaches a terminal outcome.  Each stage sees a
:class:`RequestContext` and can

* **pass** the request unchanged to the next stage,
* **transform** it in place (rewrite its priority, stamp metadata), or
* **short-circuit** it with an immediate terminal outcome — a cache hit, a
  token-bucket rejection, an auth/quota refusal — or **park** it behind an
  identical in-flight request (coalescing), to be resolved when that
  request finishes.

The pipeline is registration-order deterministic: stages run in the order
they were registered, a short-circuit skips the *later* stages' admission
hooks but still unwinds the *earlier* stages' completion hooks, and every
stage owns plain integer counters the traffic report and the telemetry
registry render.  An empty pipeline is an exact no-op: a run through it
is byte-identical to a run without one.

Shipped stages, in the order :func:`build_pipeline` registers them:

``auth``        allow-list + per-tenant admission quota (REJECTED)
``rate-limit``  per-tenant token bucket (RATE_LIMITED)
``cache``       response cache, TTL + explicit invalidation, keyed on the
                function + payload digest (CACHED)
``coalesce``    duplicate-request coalescing: one backend invocation fans
                its result out to every identical concurrent waiter
                (COALESCED)
``hedge``       hedged retries: when the elapsed time threatens the latency
                budget, a second attempt races on another replica —
                first finisher wins, the loser is cancelled
"""

from __future__ import annotations

import enum
import functools
import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.traffic.slo import RequestOutcome, RequestRecord


class MiddlewareError(RuntimeError):
    """Raised for invalid pipeline configurations or stage parameters."""


@functools.lru_cache(maxsize=4096)
def response_key(function: str, payload_bytes: int) -> str:
    """The response-identity digest cache/coalesce stages key on.

    Two requests with the same function and payload produce the same
    deterministic response, so the digest of those two fields *is* the
    response identity.  (Scheduling class and deadline affect *when* a
    request is served, never *what* it returns.)  Memoised: a run sees few
    distinct (function, payload) pairs and asks for each many times.
    """
    return hashlib.sha1(
        ("%s:%d" % (function, payload_bytes)).encode("utf-8")
    ).hexdigest()


class AdmitAction(enum.Enum):
    """What one stage decided about an arriving request."""

    PASS = "pass"                    # unchanged, on to the next stage
    TRANSFORM = "transform"          # mutated in place, on to the next stage
    SHORT_CIRCUIT = "short_circuit"  # terminal outcome right now
    PARK = "park"                    # held by the stage until a peer resolves it


@dataclass(frozen=True)
class Admission:
    """One stage's admission decision (the pipeline returns the first stop)."""

    action: AdmitAction
    #: Terminal outcome for SHORT_CIRCUIT decisions.
    outcome: Optional[RequestOutcome] = None
    #: Completion instant for short-circuits that *serve* the request
    #: (cache hits); ``None`` for refusals, which produce no response.
    completion_s: Optional[float] = None
    #: Name of the stage that stopped the request (set by the pipeline).
    stage: str = ""

    @classmethod
    def passed(cls) -> "Admission":
        return _PASS

    @classmethod
    def transformed(cls) -> "Admission":
        return _TRANSFORM

    @classmethod
    def short_circuit(
        cls, outcome: RequestOutcome, completion_s: Optional[float] = None
    ) -> "Admission":
        return cls(AdmitAction.SHORT_CIRCUIT, outcome=outcome, completion_s=completion_s)

    @classmethod
    def parked(cls) -> "Admission":
        return cls(AdmitAction.PARK)


_PASS = Admission(AdmitAction.PASS)
_TRANSFORM = Admission(AdmitAction.TRANSFORM)


@dataclass
class RequestContext:
    """One request's trip through the pipeline.

    ``request`` stays the engine's opaque request object (anything with
    ``request_id``/``arrival_s``/``function``/``payload_bytes``); stages
    that transform it mutate ``priority``/``deadline_s`` style fields via
    ``override`` entries read back by the engine, never the frozen request
    itself.  ``entered`` records which stages admitted the request, so the
    completion unwind runs exactly those stages' hooks in reverse order.
    """

    tenant: str
    request: object
    key: str  # response-identity digest (function + payload)
    entered: List["MiddlewareStage"] = field(default_factory=list)
    #: Stage-to-stage scratch space (e.g. transform overrides).
    data: Dict[str, object] = field(default_factory=dict)

    @property
    def request_id(self) -> int:
        return self.request.request_id

    @property
    def arrival_s(self) -> float:
        return self.request.arrival_s


@dataclass
class DispatchPlan:
    """The pipeline's verdict on one dispatch: service time, maybe a hedge.

    ``service_s`` is the primary attempt's (possibly transformed) service
    time.  When a hedge fires, the second attempt launches
    ``hedge_delay_s`` after dispatch and runs for ``hedge_service_s``; the
    first finisher wins and the loser is cancelled at the winner's
    completion instant.
    """

    service_s: float
    hedge_delay_s: Optional[float] = None
    hedge_service_s: Optional[float] = None

    @property
    def hedged(self) -> bool:
        return self.hedge_service_s is not None

    def completion_offsets(self) -> Tuple[float, Optional[float]]:
        """(primary, hedge) completion offsets from the dispatch instant."""
        if not self.hedged:
            return self.service_s, None
        return self.service_s, self.hedge_delay_s + self.hedge_service_s


class MiddlewareStage:
    """Base stage: pass-through hooks plus a counter dictionary.

    Subclasses override whichever hooks they care about and bump
    ``self.counters`` — plain ints the pipeline exposes through
    :meth:`MiddlewarePipeline.stats` for the report and telemetry layers.
    """

    name: str = "stage"

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}

    def count(self, event: str, amount: int = 1) -> None:
        self.counters[event] = self.counters.get(event, 0) + amount

    # -- hooks ---------------------------------------------------------------------

    def on_admit(self, ctx: RequestContext, now: float) -> Admission:
        """Decide the arriving request's fate; default: pass it on."""
        return Admission.passed()

    def on_dispatch(self, ctx: RequestContext, now: float, plan: DispatchPlan,
                    spare_replica: bool) -> DispatchPlan:
        """Shape the dispatch (service time, hedging); default: unchanged."""
        return plan

    def on_complete(
        self, ctx: RequestContext, record: RequestRecord, now: float
    ) -> Iterable[Tuple[RequestContext, RequestRecord]]:
        """React to a terminal outcome; may release parked followers."""
        return ()


class MiddlewarePipeline:
    """An ordered, name-addressable chain of middleware stages.

    Stages run in registration order.  The admission walk stops at the
    first stage that short-circuits or parks the request — later stages
    never see it — but completion always unwinds every stage the request
    *entered*, in reverse order, so earlier stages (cache fills, token
    refunds) observe every outcome they admitted.
    """

    def __init__(self, stages: Sequence[MiddlewareStage] = ()) -> None:
        #: The stages in registration (execution) order.
        self.stages: List[MiddlewareStage] = []
        for stage in stages:
            self.register(stage)

    # -- registration --------------------------------------------------------------

    def register(self, stage: MiddlewareStage) -> MiddlewareStage:
        if not stage.name:
            raise MiddlewareError("middleware stages need a non-empty name")
        if stage.name in self:
            raise MiddlewareError("middleware %r is already registered" % stage.name)
        self.stages.append(stage)
        return stage

    def stage(self, name: str) -> MiddlewareStage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise MiddlewareError(
            "no middleware named %r (registered: %s)" % (name, ", ".join(self.names) or "none")
        )

    def __contains__(self, name: str) -> bool:
        return any(stage.name == name for stage in self.stages)

    @property
    def names(self) -> List[str]:
        """Every registered stage name, in registration (execution) order."""
        return [stage.name for stage in self.stages]

    # -- the request path ----------------------------------------------------------

    def context(self, tenant: str, request: object) -> RequestContext:
        return RequestContext(
            tenant=tenant,
            request=request,
            key=response_key(request.function, request.payload_bytes),
        )

    def admit(self, ctx: RequestContext, now: float) -> Admission:
        """Walk the stages; return the first stopping decision."""
        for stage in self.stages:
            ctx.entered.append(stage)
            decision = stage.on_admit(ctx, now)
            if decision.action in (AdmitAction.SHORT_CIRCUIT, AdmitAction.PARK):
                return Admission(
                    action=decision.action,
                    outcome=decision.outcome,
                    completion_s=decision.completion_s,
                    stage=stage.name,
                )
        return Admission.passed()

    def plan_dispatch(
        self, ctx: RequestContext, now: float, service_s: float, spare_replica: bool
    ) -> DispatchPlan:
        """Let the entered stages shape one dispatch (jitter, hedging)."""
        plan = DispatchPlan(service_s=service_s)
        for stage in ctx.entered:
            plan = stage.on_dispatch(ctx, now, plan, spare_replica)
        return plan

    def complete(
        self, ctx: RequestContext, record: RequestRecord, now: float
    ) -> List[Tuple[RequestContext, RequestRecord]]:
        """Unwind the entered stages (reverse order); collect follow-ons.

        Follow-ons are parked requests the outcome resolves (coalesced
        waiters): the engine accounts each exactly like a request of its
        own, which recursively unwinds *its* entered stages.
        """
        followons: List[Tuple[RequestContext, RequestRecord]] = []
        for stage in reversed(ctx.entered):
            followons.extend(stage.on_complete(ctx, record, now))
        return followons

    # -- observability -------------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage counters, stages in registration order, keys sorted."""
        return {stage.name: dict(sorted(stage.counters.items())) for stage in self.stages}


# -- shipped stages ------------------------------------------------------------------


class AuthQuotaStage(MiddlewareStage):
    """Allow-list authentication plus a per-tenant admission quota.

    ``allow`` (when given) names the tenants whose requests are authorized
    at all; ``quota`` (when given) caps how many requests one tenant may
    admit over the run — the modelled equivalent of an API-key plan limit.
    Refusals short-circuit with :attr:`RequestOutcome.REJECTED` and never
    reach the queue.
    """

    name = "auth"

    def __init__(
        self, allow: Optional[Iterable[str]] = None, quota: Optional[int] = None
    ) -> None:
        super().__init__()
        if quota is not None and quota < 1:
            raise MiddlewareError("auth quota must be >= 1, got %r" % quota)
        self.allow = frozenset(allow) if allow is not None else None
        self.quota = quota
        self._admitted: Dict[str, int] = {}

    def on_admit(self, ctx: RequestContext, now: float) -> Admission:
        if self.allow is not None and ctx.tenant not in self.allow:
            self.count("denied_auth")
            return Admission.short_circuit(RequestOutcome.REJECTED)
        used = self._admitted.get(ctx.tenant, 0)
        if self.quota is not None and used >= self.quota:
            self.count("denied_quota")
            return Admission.short_circuit(RequestOutcome.REJECTED)
        self._admitted[ctx.tenant] = used + 1
        self.count("authorized")
        return Admission.passed()


class TokenBucketStage(MiddlewareStage):
    """Per-tenant token-bucket rate limiting.

    Each tenant's bucket refills at ``rate_rps`` tokens per simulated
    second up to ``burst`` tokens (the bucket starts full, so a cold tenant
    can burst).  An arrival with no whole token available is refused with
    :attr:`RequestOutcome.RATE_LIMITED`.  ``per_tenant`` overrides the
    default rate for named tenants.
    """

    name = "rate-limit"

    def __init__(
        self,
        rate_rps: float,
        burst: Optional[float] = None,
        per_tenant: Optional[Dict[str, float]] = None,
    ) -> None:
        super().__init__()
        if rate_rps <= 0:
            raise MiddlewareError("rate_rps must be positive, got %r" % rate_rps)
        self.rate_rps = rate_rps
        self.burst = burst if burst is not None else max(1.0, rate_rps)
        if self.burst < 1.0:
            raise MiddlewareError("burst must allow at least one token")
        self.per_tenant = dict(per_tenant or {})
        for tenant, rate in self.per_tenant.items():
            if rate <= 0:
                raise MiddlewareError("tenant %r rate must be positive" % tenant)
        self._buckets: Dict[str, Tuple[float, float]] = {}  # tenant -> (tokens, asof)

    def _rate(self, tenant: str) -> float:
        return self.per_tenant.get(tenant, self.rate_rps)

    def tokens(self, tenant: str, now: float) -> float:
        """The tenant's current token balance (refilled to ``now``)."""
        tokens, asof = self._buckets.get(tenant, (self.burst, now))
        return min(self.burst, tokens + (now - asof) * self._rate(tenant))

    def on_admit(self, ctx: RequestContext, now: float) -> Admission:
        balance = self.tokens(ctx.tenant, now)
        if balance < 1.0:
            self._buckets[ctx.tenant] = (balance, now)
            self.count("rejected")
            return Admission.short_circuit(RequestOutcome.RATE_LIMITED)
        self._buckets[ctx.tenant] = (balance - 1.0, now)
        self.count("allowed")
        return Admission.passed()


@dataclass
class _CacheEntry:
    expires_s: float
    fills: int = 1


class ResponseCacheStage(MiddlewareStage):
    """A TTL response cache keyed on the function + payload digest.

    A hit short-circuits with :attr:`RequestOutcome.CACHED` and completes
    ``hit_latency_s`` after arrival (default: instantly — the ingress
    answers from memory).  Entries fill from completed backend responses on
    the unwind path, expire ``ttl_s`` simulated seconds later, and evict
    least-recently-used beyond ``capacity``.  :meth:`invalidate` drops one
    key or the whole cache — the explicit-invalidation path a deploy or a
    data change would trigger.
    """

    name = "cache"

    def __init__(
        self, ttl_s: float = 60.0, capacity: int = 4096, hit_latency_s: float = 0.0
    ) -> None:
        super().__init__()
        if ttl_s <= 0:
            raise MiddlewareError("cache ttl_s must be positive, got %r" % ttl_s)
        if capacity < 1:
            raise MiddlewareError("cache capacity must be >= 1, got %r" % capacity)
        if hit_latency_s < 0:
            raise MiddlewareError("hit_latency_s must be non-negative")
        self.ttl_s = ttl_s
        self.capacity = capacity
        self.hit_latency_s = hit_latency_s
        #: Insertion-ordered: oldest-used first (dicts re-insert on touch).
        self._entries: Dict[str, _CacheEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def on_admit(self, ctx: RequestContext, now: float) -> Admission:
        entry = self._entries.get(ctx.key)
        if entry is not None:
            if now < entry.expires_s:
                # LRU touch: move to the recently-used end.
                del self._entries[ctx.key]
                self._entries[ctx.key] = entry
                self.count("hits")
                return Admission.short_circuit(
                    RequestOutcome.CACHED, completion_s=now + self.hit_latency_s
                )
            del self._entries[ctx.key]
            self.count("expired")
        self.count("misses")
        return Admission.passed()

    def on_complete(
        self, ctx: RequestContext, record: RequestRecord, now: float
    ) -> Iterable[Tuple[RequestContext, RequestRecord]]:
        if record.outcome is RequestOutcome.COMPLETED:
            existing = self._entries.pop(ctx.key, None)
            self._entries[ctx.key] = _CacheEntry(
                expires_s=now + self.ttl_s,
                fills=existing.fills + 1 if existing else 1,
            )
            self.count("fills")
            while len(self._entries) > self.capacity:
                self._entries.pop(next(iter(self._entries)))
                self.count("evicted")
        return ()

    def invalidate(self, key: Optional[str] = None) -> int:
        """Drop one cached response (or all of them); returns entries removed."""
        if key is None:
            removed = len(self._entries)
            self._entries.clear()
        else:
            removed = 1 if self._entries.pop(key, None) is not None else 0
        self.count("invalidated", removed)
        return removed


class CoalesceStage(MiddlewareStage):
    """Duplicate-request coalescing (the classic single-flight pattern).

    The first request for a response key becomes the *leader* and proceeds
    normally; identical requests arriving while the leader is still in
    flight are parked as *followers* — no queue slot, no backend invocation
    — and resolve the instant the leader does.  A completed leader fans its
    result out as :attr:`RequestOutcome.COALESCED` responses at the same
    completion instant; a failed leader (drop/timeout/shed) shares its fate
    with every follower, exactly like single-flight callers sharing an
    error.
    """

    name = "coalesce"

    def __init__(self) -> None:
        super().__init__()
        self._followers: Dict[str, List[RequestContext]] = {}
        self._leaders: Dict[str, int] = {}  # key -> leader request_id

    def waiting(self, key: str) -> int:
        return len(self._followers.get(key, ()))

    def on_admit(self, ctx: RequestContext, now: float) -> Admission:
        if ctx.key in self._leaders:
            self._followers.setdefault(ctx.key, []).append(ctx)
            self.count("parked")
            return Admission.parked()
        self._leaders[ctx.key] = ctx.request_id
        self.count("leaders")
        return Admission.passed()

    def on_complete(
        self, ctx: RequestContext, record: RequestRecord, now: float
    ) -> Iterable[Tuple[RequestContext, RequestRecord]]:
        if self._leaders.get(ctx.key) != ctx.request_id:
            return ()
        del self._leaders[ctx.key]
        followers = self._followers.pop(ctx.key, [])
        results: List[Tuple[RequestContext, RequestRecord]] = []
        for follower in followers:
            request = follower.request
            if record.outcome in (RequestOutcome.COMPLETED, RequestOutcome.CACHED):
                self.count("fanned_out")
                outcome = RequestOutcome.COALESCED
                completion: Optional[float] = record.completion_s
            else:
                self.count("shared_failures")
                outcome = record.outcome
                completion = None
            results.append(
                (
                    follower,
                    RequestRecord(
                        request_id=request.request_id,
                        function=request.function,
                        outcome=outcome,
                        arrival_s=request.arrival_s,
                        completion_s=completion,
                        request_class=getattr(request, "request_class", "standard"),
                        deadline_s=getattr(request, "deadline_s", None),
                    ),
                )
            )
        return results


class HedgeStage(MiddlewareStage):
    """Hedged retries: race a second replica when the tail budget is at risk.

    The stage owns the run's straggler model: with probability
    ``straggler_prob`` an attempt's service time is inflated by
    ``straggler_factor`` (the seeded tail that motivates hedging at all —
    the deterministic per-payload cost never straggles on its own).  At
    dispatch, if the primary attempt would still be running once the
    request's total elapsed time reaches ``budget_s`` — the latency budget,
    typically the SLO's p99 target — and a spare eligible replica exists, a
    hedge launches at that instant on the spare.  First finisher wins; the
    engine cancels the loser at the winner's completion.
    """

    name = "hedge"

    def __init__(
        self,
        budget_s: float = 1.0,
        straggler_prob: float = 0.05,
        straggler_factor: float = 4.0,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if budget_s <= 0:
            raise MiddlewareError("hedge budget_s must be positive, got %r" % budget_s)
        if not 0.0 <= straggler_prob < 1.0:
            raise MiddlewareError("straggler_prob must be in [0, 1)")
        if straggler_factor < 1.0:
            raise MiddlewareError("straggler_factor must be >= 1.0")
        self.budget_s = budget_s
        self.straggler_prob = straggler_prob
        self.straggler_factor = straggler_factor
        self._rng = random.Random(seed)

    def _attempt_service(self, base_s: float) -> float:
        if self.straggler_prob > 0 and self._rng.random() < self.straggler_prob:
            self.count("stragglers")
            return base_s * self.straggler_factor
        return base_s

    def on_dispatch(self, ctx: RequestContext, now: float, plan: DispatchPlan,
                    spare_replica: bool) -> DispatchPlan:
        base = plan.service_s
        primary = self._attempt_service(base)
        plan.service_s = primary
        self.count("attempts")
        # The hedge trigger: the instant total elapsed time hits the budget.
        trigger = max(0.0, self.budget_s - (now - ctx.arrival_s))
        if not spare_replica or primary <= trigger:
            return plan
        hedge = self._attempt_service(base)
        plan.hedge_delay_s = trigger
        plan.hedge_service_s = hedge
        self.count("fired")
        if trigger + hedge < primary:
            self.count("won")
        else:
            self.count("lost")
        return plan


#: Canonical stage order (what ``build_pipeline`` registers when asked).
STAGE_NAMES: Tuple[str, ...] = ("auth", "rate-limit", "cache", "coalesce", "hedge")


def build_pipeline(
    names: Sequence[str],
    cache_ttl_s: float = 60.0,
    cache_capacity: int = 4096,
    cache_hit_latency_s: float = 0.0,
    rate_limit_rps: float = 50.0,
    rate_limit_burst: Optional[float] = None,
    hedge_budget_s: float = 1.0,
    hedge_straggler_prob: float = 0.05,
    hedge_straggler_factor: float = 4.0,
    hedge_seed: int = 0,
    auth_allow: Optional[Iterable[str]] = None,
    auth_quota: Optional[int] = None,
) -> MiddlewarePipeline:
    """Build a pipeline from stage names (the ``--middleware`` CLI format).

    Stages register in the order given — registration order is execution
    order, so ``cache,coalesce`` checks the cache before coalescing behind
    an in-flight leader.  Unknown names raise :class:`MiddlewareError`.
    """
    factories = {
        "auth": lambda: AuthQuotaStage(allow=auth_allow, quota=auth_quota),
        "rate-limit": lambda: TokenBucketStage(
            rate_rps=rate_limit_rps, burst=rate_limit_burst
        ),
        "cache": lambda: ResponseCacheStage(
            ttl_s=cache_ttl_s, capacity=cache_capacity, hit_latency_s=cache_hit_latency_s
        ),
        "coalesce": CoalesceStage,
        "hedge": lambda: HedgeStage(
            budget_s=hedge_budget_s,
            straggler_prob=hedge_straggler_prob,
            straggler_factor=hedge_straggler_factor,
            seed=hedge_seed,
        ),
    }
    pipeline = MiddlewarePipeline()
    for raw in names:
        name = raw.strip()
        if not name:
            continue
        if name not in factories:
            raise MiddlewareError(
                "unknown middleware %r (known: %s)" % (name, ", ".join(STAGE_NAMES))
            )
        pipeline.register(factories[name]())
    return pipeline

"""Unit tests for the composable gateway middleware pipeline."""

import random

import pytest

from repro.gateway.middleware import (
    STAGE_NAMES,
    Admission,
    AdmitAction,
    AuthQuotaStage,
    CoalesceStage,
    DispatchPlan,
    HedgeStage,
    MiddlewareError,
    MiddlewarePipeline,
    MiddlewareStage,
    ResponseCacheStage,
    TokenBucketStage,
    build_pipeline,
    response_key,
)
from repro.traffic.arrivals import Request
from repro.traffic.slo import RequestOutcome, RequestRecord

MB = 1024 * 1024


def _request(request_id=0, arrival_s=0.0, function="app", payload_bytes=MB):
    return Request(
        request_id=request_id,
        arrival_s=arrival_s,
        function=function,
        payload_bytes=payload_bytes,
    )


def _record(request, outcome=RequestOutcome.COMPLETED, completion_s=1.0):
    completed = outcome is RequestOutcome.COMPLETED
    return RequestRecord(
        request_id=request.request_id,
        function=request.function,
        outcome=outcome,
        arrival_s=request.arrival_s,
        dispatch_s=request.arrival_s if completed else None,
        completion_s=completion_s,
    )


class _Probe(MiddlewareStage):
    """A stage that logs its hook calls and returns a scripted decision."""

    def __init__(self, name, log, decision=None):
        super().__init__()
        self.name = name
        self.log = log
        self.decision = decision or Admission.passed()

    def on_admit(self, ctx, now):
        self.log.append(("admit", self.name))
        return self.decision

    def on_complete(self, ctx, record, now):
        self.log.append(("complete", self.name))
        return ()


# -- pipeline mechanics ---------------------------------------------------------------


def test_stages_run_in_registration_order():
    log = []
    pipeline = MiddlewarePipeline([_Probe("a", log), _Probe("b", log), _Probe("c", log)])
    assert pipeline.names == ["a", "b", "c"]
    ctx = pipeline.context("t", _request())
    decision = pipeline.admit(ctx, 0.0)
    assert decision.action is AdmitAction.PASS
    assert log == [("admit", "a"), ("admit", "b"), ("admit", "c")]


def test_duplicate_or_nameless_registration_raises():
    log = []
    pipeline = MiddlewarePipeline([_Probe("a", log)])
    with pytest.raises(MiddlewareError):
        pipeline.register(_Probe("a", log))
    with pytest.raises(MiddlewareError):
        pipeline.register(_Probe("", log))
    with pytest.raises(MiddlewareError):
        pipeline.stage("ghost")


def test_short_circuit_skips_later_stages_but_unwinds_earlier_ones():
    log = []
    stop = Admission.short_circuit(RequestOutcome.REJECTED)
    pipeline = MiddlewarePipeline(
        [_Probe("early", log), _Probe("stopper", log, decision=stop), _Probe("late", log)]
    )
    ctx = pipeline.context("t", _request())
    decision = pipeline.admit(ctx, 0.0)
    assert decision.action is AdmitAction.SHORT_CIRCUIT
    assert decision.stage == "stopper"
    assert log == [("admit", "early"), ("admit", "stopper")]  # "late" never saw it
    del log[:]
    # Completion unwinds the entered stages in reverse order, "late" excluded.
    pipeline.complete(ctx, _record(ctx.request, outcome=RequestOutcome.REJECTED), 0.0)
    assert log == [("complete", "stopper"), ("complete", "early")]


def test_empty_pipeline_passes_everything():
    pipeline = MiddlewarePipeline()
    ctx = pipeline.context("t", _request())
    assert pipeline.admit(ctx, 0.0).action is AdmitAction.PASS
    assert pipeline.complete(ctx, _record(ctx.request), 1.0) == []
    assert pipeline.stats() == {}


def test_stats_keeps_registration_order_with_sorted_keys():
    pipeline = build_pipeline(["cache", "auth"])
    ctx = pipeline.context("t", _request())
    pipeline.admit(ctx, 0.0)
    stats = pipeline.stats()
    assert list(stats) == ["cache", "auth"]  # registration order, not alphabetical
    assert stats["cache"] == {"misses": 1}
    assert stats["auth"] == {"authorized": 1}


def test_response_key_depends_on_function_and_payload_only():
    assert response_key("app", MB) == response_key("app", MB)
    assert response_key("app", MB) != response_key("app", MB + 1)
    assert response_key("app", MB) != response_key("other", MB)


def test_build_pipeline_rejects_unknown_names_and_skips_blanks():
    pipeline = build_pipeline(["cache", "", " coalesce "])
    assert pipeline.names == ["cache", "coalesce"]
    with pytest.raises(MiddlewareError):
        build_pipeline(["cache", "bogus"])
    assert build_pipeline(STAGE_NAMES).names == list(STAGE_NAMES)


# -- auth / quota ---------------------------------------------------------------------


def test_auth_allow_list_rejects_unknown_tenants():
    stage = AuthQuotaStage(allow=["alpha"])
    pipeline = MiddlewarePipeline([stage])
    ok = pipeline.admit(pipeline.context("alpha", _request()), 0.0)
    denied = pipeline.admit(pipeline.context("beta", _request(request_id=1)), 0.0)
    assert ok.action is AdmitAction.PASS
    assert denied.action is AdmitAction.SHORT_CIRCUIT
    assert denied.outcome is RequestOutcome.REJECTED
    assert denied.completion_s is None  # refusals produce no response
    assert stage.counters == {"authorized": 1, "denied_auth": 1}


def test_auth_quota_caps_admissions_per_tenant():
    stage = AuthQuotaStage(quota=2)
    pipeline = MiddlewarePipeline([stage])
    for request_id in range(2):
        decision = pipeline.admit(pipeline.context("t", _request(request_id=request_id)), 0.0)
        assert decision.action is AdmitAction.PASS
    over = pipeline.admit(pipeline.context("t", _request(request_id=2)), 0.0)
    assert over.outcome is RequestOutcome.REJECTED
    # Quotas are per tenant: another tenant still has its full allowance.
    other = pipeline.admit(pipeline.context("u", _request(request_id=3)), 0.0)
    assert other.action is AdmitAction.PASS
    assert stage.counters["denied_quota"] == 1
    with pytest.raises(MiddlewareError):
        AuthQuotaStage(quota=0)


# -- token bucket ---------------------------------------------------------------------


def test_token_bucket_bursts_then_rejects_then_refills():
    stage = TokenBucketStage(rate_rps=1.0, burst=2.0)
    pipeline = MiddlewarePipeline([stage])
    # The bucket starts full: two admissions drain it at t=0.
    for request_id in range(2):
        ctx = pipeline.context("t", _request(request_id=request_id))
        assert pipeline.admit(ctx, 0.0).action is AdmitAction.PASS
    refused = pipeline.admit(pipeline.context("t", _request(request_id=2)), 0.0)
    assert refused.outcome is RequestOutcome.RATE_LIMITED
    # One simulated second refills one token.
    later = pipeline.admit(pipeline.context("t", _request(request_id=3, arrival_s=1.0)), 1.0)
    assert later.action is AdmitAction.PASS
    assert stage.counters == {"allowed": 3, "rejected": 1}


def test_token_bucket_is_per_tenant_with_overrides():
    stage = TokenBucketStage(rate_rps=10.0, burst=1.0, per_tenant={"slow": 0.5})
    pipeline = MiddlewarePipeline([stage])
    assert pipeline.admit(pipeline.context("slow", _request()), 0.0).action is AdmitAction.PASS
    # "slow" is empty, but "fast" still has its own full bucket.
    assert pipeline.admit(pipeline.context("fast", _request(request_id=1)), 0.0).action is AdmitAction.PASS
    refused = pipeline.admit(pipeline.context("slow", _request(request_id=2)), 0.0)
    assert refused.outcome is RequestOutcome.RATE_LIMITED
    assert stage.tokens("slow", 2.0) == pytest.approx(1.0)  # 0.5/s refill, capped at burst


def test_token_bucket_validates_parameters():
    with pytest.raises(MiddlewareError):
        TokenBucketStage(rate_rps=0.0)
    with pytest.raises(MiddlewareError):
        TokenBucketStage(rate_rps=1.0, burst=0.5)
    with pytest.raises(MiddlewareError):
        TokenBucketStage(rate_rps=1.0, per_tenant={"t": -1.0})


# -- response cache -------------------------------------------------------------------


def test_cache_misses_fills_then_hits_until_ttl_expiry():
    stage = ResponseCacheStage(ttl_s=10.0)
    pipeline = MiddlewarePipeline([stage])
    first = pipeline.context("t", _request())
    assert pipeline.admit(first, 0.0).action is AdmitAction.PASS  # miss
    pipeline.complete(first, _record(first.request, completion_s=1.0), 1.0)  # fill
    hit = pipeline.admit(pipeline.context("t", _request(request_id=1, arrival_s=2.0)), 2.0)
    assert hit.action is AdmitAction.SHORT_CIRCUIT
    assert hit.outcome is RequestOutcome.CACHED
    assert hit.completion_s == pytest.approx(2.0)  # default: served instantly
    # Past the TTL the entry is expired and the request goes to the backend.
    expired = pipeline.admit(pipeline.context("t", _request(request_id=2, arrival_s=20.0)), 20.0)
    assert expired.action is AdmitAction.PASS
    assert stage.counters == {"misses": 2, "fills": 1, "hits": 1, "expired": 1}


def test_cache_hit_latency_delays_the_served_completion():
    stage = ResponseCacheStage(ttl_s=10.0, hit_latency_s=0.25)
    pipeline = MiddlewarePipeline([stage])
    ctx = pipeline.context("t", _request())
    pipeline.admit(ctx, 0.0)
    pipeline.complete(ctx, _record(ctx.request, completion_s=1.0), 1.0)
    hit = pipeline.admit(pipeline.context("t", _request(request_id=1, arrival_s=2.0)), 2.0)
    assert hit.completion_s == pytest.approx(2.25)


def test_cache_only_fills_from_completed_outcomes():
    stage = ResponseCacheStage(ttl_s=10.0)
    pipeline = MiddlewarePipeline([stage])
    ctx = pipeline.context("t", _request())
    pipeline.admit(ctx, 0.0)
    pipeline.complete(
        ctx, _record(ctx.request, outcome=RequestOutcome.TIMED_OUT, completion_s=None), 5.0
    )
    assert len(stage) == 0
    again = pipeline.admit(pipeline.context("t", _request(request_id=1, arrival_s=6.0)), 6.0)
    assert again.action is AdmitAction.PASS  # still a miss


def test_cache_evicts_least_recently_used_beyond_capacity():
    stage = ResponseCacheStage(ttl_s=100.0, capacity=2)
    pipeline = MiddlewarePipeline([stage])

    def fill(payload_bytes, now):
        ctx = pipeline.context("t", _request(request_id=payload_bytes, payload_bytes=payload_bytes))
        pipeline.admit(ctx, now)
        pipeline.complete(ctx, _record(ctx.request, completion_s=now), now)

    fill(1, 0.0)
    fill(2, 1.0)
    # Touch key 1 so key 2 becomes the least recently used...
    hit = pipeline.admit(pipeline.context("t", _request(request_id=10, payload_bytes=1)), 2.0)
    assert hit.outcome is RequestOutcome.CACHED
    fill(3, 3.0)  # ...and the capacity-2 cache evicts key 2, not key 1.
    assert stage.counters["evicted"] == 1
    assert pipeline.admit(
        pipeline.context("t", _request(request_id=11, payload_bytes=1)), 4.0
    ).outcome is RequestOutcome.CACHED
    assert pipeline.admit(
        pipeline.context("t", _request(request_id=12, payload_bytes=2)), 4.0
    ).action is AdmitAction.PASS


def test_cache_explicit_invalidation():
    stage = ResponseCacheStage(ttl_s=100.0)
    pipeline = MiddlewarePipeline([stage])
    ctx = pipeline.context("t", _request())
    pipeline.admit(ctx, 0.0)
    pipeline.complete(ctx, _record(ctx.request, completion_s=0.5), 0.5)
    assert stage.invalidate(ctx.key) == 1
    assert stage.invalidate(ctx.key) == 0  # already gone
    miss = pipeline.admit(pipeline.context("t", _request(request_id=1, arrival_s=1.0)), 1.0)
    assert miss.action is AdmitAction.PASS
    # Refill two distinct keys and flush everything at once.
    for request_id, payload in ((2, MB), (3, 2 * MB)):
        ctx2 = pipeline.context("t", _request(request_id=request_id, payload_bytes=payload))
        pipeline.admit(ctx2, 3.0)
        pipeline.complete(ctx2, _record(ctx2.request, completion_s=3.5), 3.5)
    assert len(stage) == 2
    assert stage.invalidate() == 2
    assert len(stage) == 0
    assert stage.counters["invalidated"] == 3

    with pytest.raises(MiddlewareError):
        ResponseCacheStage(ttl_s=0.0)
    with pytest.raises(MiddlewareError):
        ResponseCacheStage(capacity=0)


# -- coalescing -----------------------------------------------------------------------


def test_coalesce_parks_duplicates_and_fans_the_result_out():
    stage = CoalesceStage()
    pipeline = MiddlewarePipeline([stage])
    leader = pipeline.context("t", _request(request_id=0))
    assert pipeline.admit(leader, 0.0).action is AdmitAction.PASS
    followers = []
    for request_id in (1, 2, 3):
        ctx = pipeline.context("t", _request(request_id=request_id, arrival_s=0.1))
        decision = pipeline.admit(ctx, 0.1)
        assert decision.action is AdmitAction.PARK
        assert decision.stage == "coalesce"
        followers.append(ctx)
    assert stage.waiting(leader.key) == 3
    fanned = pipeline.complete(leader, _record(leader.request, completion_s=2.0), 2.0)
    assert len(fanned) == 3
    for ctx, record in fanned:
        assert record.outcome is RequestOutcome.COALESCED
        assert record.completion_s == pytest.approx(2.0)  # the leader's instant
        assert record.served
    assert {record.request_id for _, record in fanned} == {1, 2, 3}
    assert stage.counters == {"leaders": 1, "parked": 3, "fanned_out": 3}
    # The key is free again: the next identical request becomes a new leader.
    assert pipeline.admit(pipeline.context("t", _request(request_id=4)), 3.0).action is AdmitAction.PASS


def test_coalesce_shares_the_leaders_failure():
    stage = CoalesceStage()
    pipeline = MiddlewarePipeline([stage])
    leader = pipeline.context("t", _request(request_id=0))
    pipeline.admit(leader, 0.0)
    follower = pipeline.context("t", _request(request_id=1, arrival_s=0.1))
    pipeline.admit(follower, 0.1)
    fanned = pipeline.complete(
        leader, _record(leader.request, outcome=RequestOutcome.TIMED_OUT, completion_s=None), 5.0
    )
    assert len(fanned) == 1
    _, record = fanned[0]
    assert record.outcome is RequestOutcome.TIMED_OUT
    assert record.completion_s is None
    assert stage.counters["shared_failures"] == 1


def test_coalesce_distinguishes_response_keys():
    pipeline = MiddlewarePipeline([CoalesceStage()])
    first = pipeline.context("t", _request(request_id=0, payload_bytes=MB))
    other = pipeline.context("t", _request(request_id=1, payload_bytes=2 * MB))
    assert pipeline.admit(first, 0.0).action is AdmitAction.PASS
    assert pipeline.admit(other, 0.0).action is AdmitAction.PASS  # different key


# -- hedging --------------------------------------------------------------------------


def _hedge_seed(prob=0.5):
    """A seed whose first draw straggles at ``prob`` and second does not."""
    for seed in range(1000):
        rng = random.Random(seed)
        if rng.random() < prob <= rng.random():
            return seed
    raise AssertionError("no such seed in range")


def test_hedge_stays_quiet_within_budget_or_without_spare():
    stage = HedgeStage(budget_s=10.0, straggler_prob=0.0)
    pipeline = MiddlewarePipeline([stage])
    ctx = pipeline.context("t", _request())
    ctx.entered.append(stage)
    plan = pipeline.plan_dispatch(ctx, 0.0, service_s=1.0, spare_replica=True)
    assert not plan.hedged
    assert plan.completion_offsets() == (1.0, None)
    # Over budget but no spare replica: nowhere to hedge.
    tight = HedgeStage(budget_s=0.5, straggler_prob=0.0)
    ctx2 = MiddlewarePipeline([tight]).context("t", _request(request_id=1))
    ctx2.entered.append(tight)
    plan2 = tight.on_dispatch(ctx2, 0.0, DispatchPlan(service_s=1.0), spare_replica=False)
    assert not plan2.hedged
    assert tight.counters == {"attempts": 1}


def test_hedge_fires_and_wins_against_a_straggling_primary():
    seed = _hedge_seed(prob=0.5)
    stage = HedgeStage(budget_s=0.5, straggler_prob=0.5, straggler_factor=4.0, seed=seed)
    ctx = MiddlewarePipeline([stage]).context("t", _request())
    ctx.entered.append(stage)
    plan = stage.on_dispatch(ctx, 0.0, DispatchPlan(service_s=1.0), spare_replica=True)
    assert plan.hedged
    assert plan.service_s == pytest.approx(4.0)  # primary straggled
    assert plan.hedge_delay_s == pytest.approx(0.5)  # fires at the budget instant
    assert plan.hedge_service_s == pytest.approx(1.0)  # the hedge did not straggle
    primary_done, hedge_done = plan.completion_offsets()
    assert hedge_done == pytest.approx(1.5)
    assert hedge_done < primary_done
    assert stage.counters == {"attempts": 1, "stragglers": 1, "fired": 1, "won": 1}


def test_hedge_counts_losses_when_the_primary_still_wins():
    stage = HedgeStage(budget_s=0.5, straggler_prob=0.0)
    ctx = MiddlewarePipeline([stage]).context("t", _request())
    ctx.entered.append(stage)
    # Primary runs 1.0s against a 0.5s trigger: the hedge fires but cannot
    # beat it (0.5 + 1.0 > 1.0).
    plan = stage.on_dispatch(ctx, 0.0, DispatchPlan(service_s=1.0), spare_replica=True)
    assert plan.hedged
    assert stage.counters == {"attempts": 1, "fired": 1, "lost": 1}


def test_hedge_trigger_accounts_time_already_spent_queueing():
    stage = HedgeStage(budget_s=1.0, straggler_prob=0.0)
    ctx = MiddlewarePipeline([stage]).context("t", _request(arrival_s=0.0))
    ctx.entered.append(stage)
    # Dispatched 0.8s after arrival: only 0.2s of budget remains, so even a
    # 0.3s service time is hedged.
    plan = stage.on_dispatch(ctx, 0.8, DispatchPlan(service_s=0.3), spare_replica=True)
    assert plan.hedged
    assert plan.hedge_delay_s == pytest.approx(0.2)

    with pytest.raises(MiddlewareError):
        HedgeStage(budget_s=0.0)
    with pytest.raises(MiddlewareError):
        HedgeStage(straggler_prob=1.0)
    with pytest.raises(MiddlewareError):
        HedgeStage(straggler_factor=0.5)


# -- regression: hedged winners and idle refill ---------------------------------------


def test_cache_fills_once_from_the_hedged_winner():
    """A hedged request yields exactly one record -- the winner's -- and the
    cache must fill from it exactly once; the cancelled loser never reaches
    ``on_complete`` at all."""
    seed = _hedge_seed(prob=0.5)
    cache = ResponseCacheStage(ttl_s=100.0)
    hedge = HedgeStage(budget_s=0.5, straggler_prob=0.5, straggler_factor=4.0, seed=seed)
    pipeline = MiddlewarePipeline([cache, hedge])

    ctx = pipeline.context("t", _request())
    assert pipeline.admit(ctx, 0.0).action is AdmitAction.PASS  # cold cache: miss
    plan = pipeline.plan_dispatch(ctx, 0.0, service_s=1.0, spare_replica=True)
    assert plan.hedged
    primary_done, hedge_done = plan.completion_offsets()
    assert hedge_done < primary_done  # the hedge wins this race

    # The engine materialises ONE record per hedged request: the winner's
    # completion.  The straggling primary is released, never completed.
    pipeline.complete(ctx, _record(ctx.request, completion_s=hedge_done), hedge_done)
    assert cache.counters["fills"] == 1
    assert hedge.counters["won"] == 1

    # The winner's response now serves identical requests from the cache.
    hit = pipeline.admit(
        pipeline.context("t", _request(request_id=1, arrival_s=2.0)), 2.0
    )
    assert hit.outcome is RequestOutcome.CACHED


def test_cache_never_fills_from_a_hedged_requests_failure():
    """Even when a request was hedged, a non-COMPLETED terminal record (e.g.
    both attempts timed out) must not populate the cache."""
    cache = ResponseCacheStage(ttl_s=100.0)
    hedge = HedgeStage(budget_s=0.5, straggler_prob=0.0)
    pipeline = MiddlewarePipeline([cache, hedge])
    ctx = pipeline.context("t", _request())
    pipeline.admit(ctx, 0.0)
    plan = pipeline.plan_dispatch(ctx, 0.0, service_s=1.0, spare_replica=True)
    assert plan.hedged
    pipeline.complete(
        ctx, _record(ctx.request, outcome=RequestOutcome.TIMED_OUT, completion_s=None), 5.0
    )
    assert cache.counters.get("fills", 0) == 0
    assert len(cache) == 0


def test_token_bucket_clamps_refill_at_burst_after_long_idle():
    """A long idle gap must refill the bucket to exactly ``burst``, never
    ``burst + rate * gap``: only ``burst`` admissions pass before a reject."""
    stage = TokenBucketStage(rate_rps=10.0, burst=3.0)
    pipeline = MiddlewarePipeline([stage])
    # Drain the initially full bucket.
    for request_id in range(3):
        ctx = pipeline.context("t", _request(request_id=request_id))
        assert pipeline.admit(ctx, 0.0).action is AdmitAction.PASS
    assert pipeline.admit(pipeline.context("t", _request(request_id=3)), 0.0).outcome is (
        RequestOutcome.RATE_LIMITED
    )

    # A week of idle time at 10 rps would naively bank ~6 million tokens.
    later = 0.0 + 7 * 24 * 3600.0
    assert stage.tokens("t", later) == pytest.approx(3.0)
    for request_id in range(4, 7):
        ctx = pipeline.context("t", _request(request_id=request_id, arrival_s=later))
        assert pipeline.admit(ctx, later).action is AdmitAction.PASS
    refused = pipeline.admit(
        pipeline.context("t", _request(request_id=7, arrival_s=later)), later
    )
    assert refused.outcome is RequestOutcome.RATE_LIMITED

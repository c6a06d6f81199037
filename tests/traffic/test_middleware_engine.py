"""Integration tests: the middleware pipeline threaded through the traffic engine."""

import json

import pytest

from repro.gateway.middleware import (
    CoalesceStage,
    MiddlewarePipeline,
    build_pipeline,
)
from repro.metrics.export import (
    figure_from_csv,
    figure_to_csv,
    traffic_from_figure,
    traffic_to_figure,
)
from repro.obs import JsonlEventWriter, Telemetry, write_prometheus
from repro.traffic.arrivals import Request
from repro.traffic.autoscaler import Autoscaler, NoScalingPolicy
from repro.traffic.engine import (
    MultiTenantTrafficEngine,
    TrafficConfig,
    TrafficEngine,
    run_comparison,
)
from repro.traffic.report import (
    render_middleware_table,
    render_multi_tenant_report,
    render_summary_table,
    render_traffic_report,
)
from repro.traffic.slo import RequestOutcome
from repro.traffic.tenants import TenantSpec

MB = 1024 * 1024


def _herd(count, spacing_s=0.0, payload_bytes=MB, function="app"):
    """``count`` identical requests, optionally spaced apart."""
    return [
        Request(
            request_id=i,
            arrival_s=spacing_s * i,
            function=function,
            payload_bytes=payload_bytes,
        )
        for i in range(count)
    ]


def _run(requests, middleware=None, mode="roadrunner-user"):
    engine = TrafficEngine(mode, middleware=middleware)
    summary = engine.run(requests, pattern="poisson")
    return engine, summary


# -- coalescing -----------------------------------------------------------------------


def test_coalesce_collapses_a_thundering_herd_to_one_invocation():
    engine, summary = _run(_herd(20), middleware=build_pipeline(["coalesce"]))
    # One backend invocation; nineteen responses fanned out from it.
    assert summary.completed == 1
    assert summary.coalesced == 19
    assert summary.offered == 20
    assert summary.timed_out == 0 and summary.dropped == 0
    # Every request was served: goodput counts the whole herd.
    assert summary.goodput_rps * summary.duration_s == pytest.approx(20)
    stats = engine.middleware_stats
    assert stats["coalesce"]["leaders"] == 1
    assert stats["coalesce"]["parked"] == 19
    assert stats["coalesce"]["fanned_out"] == 19
    # Followers resolve at the leader's completion instant.
    leader = next(r for r in engine.records if r.outcome is RequestOutcome.COMPLETED)
    for record in engine.records:
        if record.outcome is RequestOutcome.COALESCED:
            assert record.completion_s == pytest.approx(leader.completion_s)
            assert record.served


def test_coalesced_followers_share_a_failed_leader_outcome():
    pipeline = build_pipeline(["coalesce"])
    engine = TrafficEngine(
        "roadrunner-user",
        middleware=pipeline,
        config=TrafficConfig(initial_replicas=1, queue_timeout_s=1e-6),
    )
    summary = engine.run(_herd(5))
    # The leader times out waiting for the cold replica; so do its followers.
    assert summary.completed == 0
    assert summary.coalesced == 0
    assert summary.timed_out == 5
    assert engine.middleware_stats["coalesce"]["shared_failures"] == 4


# -- caching --------------------------------------------------------------------------


def test_cache_serves_repeats_without_backend_invocations():
    # Spaced arrivals: the first completes, fills the cache, and every
    # repeat is answered at the ingress.
    engine, summary = _run(
        _herd(30, spacing_s=2.0),
        middleware=build_pipeline(["cache"], cache_ttl_s=300.0),
    )
    assert summary.completed == 1
    assert summary.cached == 29
    stats = engine.middleware_stats["cache"]
    assert stats == {"fills": 1, "hits": 29, "misses": 1}
    # Cache hits complete instantly by default: zero added latency.
    hits = [r for r in engine.records if r.outcome is RequestOutcome.CACHED]
    assert all(r.latency_s == pytest.approx(0.0) for r in hits)


def test_cache_ttl_expiry_forces_a_refill():
    engine, summary = _run(
        _herd(4, spacing_s=10.0),
        middleware=build_pipeline(["cache"], cache_ttl_s=15.0),
    )
    # t=0 misses and fills (+TTL 15): t=10 hits, t=20 expired -> refill, t=30 hits.
    stats = engine.middleware_stats["cache"]
    assert stats["expired"] == 1
    assert stats["fills"] == 2
    assert summary.completed == 2 and summary.cached == 2


# -- rate limiting and auth -----------------------------------------------------------


def test_token_bucket_sheds_load_above_the_tenant_rate():
    engine, summary = _run(
        # Distinct payloads so neither cache nor coalescing could interfere.
        [
            Request(request_id=i, arrival_s=0.1 * i, function="app", payload_bytes=MB + i)
            for i in range(50)
        ],
        middleware=build_pipeline(["rate-limit"], rate_limit_rps=2.0, rate_limit_burst=2.0),
    )
    assert summary.rate_limited > 0
    assert summary.completed + summary.rate_limited == 50
    assert summary.failure_fraction == pytest.approx(summary.rate_limited / 50)
    limited = [r for r in engine.records if r.outcome is RequestOutcome.RATE_LIMITED]
    assert all(r.completion_s is None and not r.served for r in limited)


def test_auth_allow_list_rejects_a_whole_tenant():
    good = TenantSpec(name="good", requests=tuple(_herd(3, spacing_s=1.0, function="good")))
    bad = TenantSpec(name="bad", requests=tuple(_herd(3, spacing_s=1.0, function="bad")))
    engine = MultiTenantTrafficEngine(
        [good, bad],
        config=TrafficConfig(nodes=1, initial_replicas=1),
        middleware=build_pipeline(["auth"], auth_allow=["good"]),
    )
    result = engine.run()
    assert result.tenants["good"].completed == 3
    assert result.tenants["good"].rejected == 0
    assert result.tenants["bad"].rejected == 3
    assert result.tenants["bad"].completed == 0
    assert result.cluster.rejected == 3
    assert engine.middleware_stats["auth"] == {"authorized": 3, "denied_auth": 3}
    assert result.middleware == engine.middleware_stats


# -- hedging --------------------------------------------------------------------------


def test_hedging_attempts_every_dispatch_and_stays_consistent():
    requests = [
        Request(request_id=i, arrival_s=0.5 * i, function="app", payload_bytes=(i + 1) * MB)
        for i in range(40)
    ]
    pipeline = build_pipeline(
        ["hedge"],
        # A budget below any service time: every dispatch with a spare
        # replica hedges.
        hedge_budget_s=1e-6,
        hedge_straggler_prob=0.3,
        hedge_straggler_factor=8.0,
        hedge_seed=7,
    )
    engine = TrafficEngine(
        "roadrunner-user",
        autoscaler=Autoscaler(NoScalingPolicy(), min_replicas=4, max_replicas=4),
        config=TrafficConfig(initial_replicas=4),
        middleware=pipeline,
    )
    summary = engine.run(requests)
    stats = engine.middleware_stats["hedge"]
    assert summary.completed == 40
    assert stats["attempts"] >= 40  # one per primary, plus one per fired hedge
    assert stats.get("fired", 0) > 0
    assert stats.get("fired", 0) == stats.get("won", 0) + stats.get("lost", 0)
    # Every record still satisfies the engine's accounting invariants.
    for record in engine.records:
        assert record.completion_s >= record.dispatch_s >= record.arrival_s


def test_a_won_hedge_shortens_the_request():
    base = [
        Request(request_id=i, arrival_s=5.0 * i, function="app", payload_bytes=32 * MB)
        for i in range(30)
    ]
    kwargs = dict(
        hedge_straggler_prob=0.25, hedge_straggler_factor=16.0, hedge_seed=3
    )

    def engine(budget_s):
        return TrafficEngine(
            "roadrunner-user",
            autoscaler=Autoscaler(NoScalingPolicy(), min_replicas=2, max_replicas=2),
            config=TrafficConfig(initial_replicas=2),
            middleware=build_pipeline(["hedge"], hedge_budget_s=budget_s, **kwargs),
        )

    # A budget far beyond any straggler: hedging never fires.
    slow = engine(1e6)
    unhedged = slow.run(base)
    # A budget between the normal service time and a straggler's: exactly
    # the straggled primaries hedge, and a non-straggling hedge wins.
    fast = engine(0.1)
    hedged = fast.run(base)
    assert fast.middleware_stats["hedge"].get("won", 0) > 0
    # Same seeded straggler sequence, so wins translate into lower latency.
    assert hedged.latency.mean_s < unhedged.latency.mean_s


# -- byte-identity --------------------------------------------------------------------


def _full_output(engine_summary_pairs):
    results = {mode: summary for mode, (engine, summary) in engine_summary_pairs.items()}
    return render_traffic_report(results) + "\n" + figure_to_csv(
        traffic_to_figure(results, x_label="mode")
    )


def test_no_pipeline_and_empty_pipeline_are_byte_identical():
    requests = _herd(40, spacing_s=0.05)
    baseline = _run([Request(**vars(r)) for r in requests], middleware=None)
    empty = _run([Request(**vars(r)) for r in requests], middleware=MiddlewarePipeline())
    assert baseline[1] == empty[1]
    assert baseline[0].records == empty[0].records
    assert _full_output({"roadrunner-user": baseline}) == _full_output(
        {"roadrunner-user": empty}
    )


# -- report and export round-trips ----------------------------------------------------


def test_summary_table_adds_middleware_columns_only_when_active():
    _, plain = _run(_herd(5, spacing_s=1.0))
    _, cached = _run(_herd(5, spacing_s=1.0), middleware=build_pipeline(["cache"]))
    without = render_summary_table({"m": plain})
    with_mw = render_summary_table({"m": cached})
    assert "cached" not in without
    assert "cached" in with_mw and "coalesced" in with_mw
    table = render_middleware_table({"cache": {"hits": 4, "misses": 1}})
    assert "cache" in table and "hits" in table and "4" in table


def test_middleware_counters_survive_the_figure_round_trip():
    engine, summary = _run(
        _herd(20, spacing_s=0.5), middleware=build_pipeline(["cache", "coalesce"])
    )
    results = {"roadrunner-user": summary}
    figure = traffic_to_figure(results, x_label="mode")
    restored = traffic_from_figure(figure_from_csv(figure_to_csv(figure)))
    back = restored["roadrunner-user"]
    assert back.cached == summary.cached > 0
    assert back.coalesced == summary.coalesced
    assert back.rate_limited == summary.rate_limited == 0
    assert back.rejected == summary.rejected == 0
    assert back.completed == summary.completed


def test_pipeline_free_figures_round_trip_without_middleware_series():
    _, summary = _run(_herd(6, spacing_s=1.0))
    figure = traffic_to_figure({"roadrunner-user": summary}, x_label="mode")
    assert "cached" not in figure.panels["volume"]
    restored = traffic_from_figure(figure_from_csv(figure_to_csv(figure)))
    assert restored["roadrunner-user"].cached == 0


def test_multi_tenant_report_renders_the_middleware_table():
    herd = TenantSpec(name="herd", requests=tuple(_herd(10, function="herd")))
    engine = MultiTenantTrafficEngine(
        [herd],
        config=TrafficConfig(nodes=1, initial_replicas=1),
        middleware=build_pipeline(["coalesce"]),
    )
    result = engine.run()
    report = render_multi_tenant_report(result)
    assert "Gateway middleware (per-stage counters)" in report
    assert "coalesce" in report and "fanned_out" in report


def test_middleware_counters_reach_prometheus_and_jsonl_exports(tmp_path):
    events_path = tmp_path / "events.jsonl"
    telemetry = Telemetry(events=JsonlEventWriter(str(events_path)))
    engine = TrafficEngine(
        "roadrunner-user",
        middleware=build_pipeline(["cache", "coalesce"]),
        telemetry=telemetry,
    )
    engine.run(_herd(10, spacing_s=2.0))
    stats = engine.middleware_stats
    assert stats["cache"]["hits"] == 9
    # Prometheus: one labelled child per (stage, event) counter.
    assert (
        telemetry.registry.value(
            "repro_middleware_events_total", stage="cache", event="hits"
        )
        == 9
    )
    prom_path = tmp_path / "metrics.prom"
    write_prometheus(telemetry.registry, str(prom_path))
    text = prom_path.read_text()
    assert 'repro_middleware_events_total{stage="cache",event="hits"} 9' in text
    # JSONL: one "middleware" event per stage carrying its counters.
    telemetry.events.close()
    events = [json.loads(line) for line in events_path.read_text().splitlines()]
    middleware_events = [e for e in events if e.get("event") == "middleware"]
    assert {e["stage"] for e in middleware_events} == {"cache", "coalesce"}
    cache_event = next(e for e in middleware_events if e["stage"] == "cache")
    assert cache_event["hits"] == 9 and cache_event["fills"] == 1


def test_telemetry_without_middleware_emits_no_middleware_series(tmp_path):
    telemetry = Telemetry()
    engine = TrafficEngine("roadrunner-user", telemetry=telemetry)
    engine.run(_herd(5, spacing_s=1.0))
    prom_path = tmp_path / "metrics.prom"
    write_prometheus(telemetry.registry, str(prom_path))
    assert "repro_middleware_events_total" not in prom_path.read_text()


# -- comparison harness ---------------------------------------------------------------


def test_run_comparison_builds_one_pipeline_per_mode():
    # Spaced far enough apart that the first request completes (and fills
    # the cache) before the second arrives, even on cold-started runtimes.
    requests = _herd(12, spacing_s=2.0)
    middleware_out = {}
    results = run_comparison(
        requests,
        modes=["roadrunner-user", "runc-http"],
        middleware_factory=lambda mode: build_pipeline(["cache"]),
        middleware_out=middleware_out,
    )
    for mode in ("roadrunner-user", "runc-http"):
        assert results[mode].cached == 11
        assert middleware_out[mode]["cache"]["hits"] == 11
    # Fresh stage state per mode: both runs saw one miss, not a shared cache.
    assert middleware_out["roadrunner-user"]["cache"]["misses"] == 1
    assert middleware_out["runc-http"]["cache"]["misses"] == 1


def test_run_comparison_parallel_matches_serial_with_middleware():
    requests = _herd(15, spacing_s=0.3)
    outs = []
    for parallel in (False, True):
        middleware_out = {}
        results = run_comparison(
            requests,
            modes=["roadrunner-user", "runc-http"],
            parallel=parallel,
            middleware_factory=lambda mode: build_pipeline(["cache", "coalesce"]),
            middleware_out=middleware_out,
        )
        outs.append((results, middleware_out))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]

"""Tests for the step and predictive scaling policies, and per-class SLO export.

The step policy must respect its cooldown and never thrash on a constant
rate; the predictive policy must provision ahead of a ramp (pre-warm) and,
on the same seeded diurnal arrivals, pay fewer cold starts than reactive
target-concurrency scaling; and per-class SLO summaries must round-trip
through the figure exporters with every counter intact — including classes
that saw zero requests.
"""

import pytest

from repro.metrics.export import (
    figure_from_csv,
    figure_from_json,
    figure_to_csv,
    figure_to_json,
    traffic_from_figure,
    traffic_to_figure,
)
from repro.traffic import (
    Autoscaler,
    DiurnalArrivals,
    FairnessPolicy,
    LoadSample,
    MultiTenantTrafficEngine,
    PredictiveScalingPolicy,
    StepScalingPolicy,
    TargetConcurrencyPolicy,
    TenantSpec,
    TrafficConfig,
    make_scaling_policy,
)
from repro.traffic.autoscaler import AutoscalerError
from repro.traffic.slo import RequestOutcome, RequestRecord, summarize


def _sample(time_s, in_flight=0, queued=0, replicas=1, rate=0.0, service=0.0):
    return LoadSample(
        time_s=time_s,
        in_flight=in_flight,
        queued=queued,
        replicas=replicas,
        arrival_rate_rps=rate,
        service_time_s=service,
    )


# -- step policy --------------------------------------------------------------------


def test_step_policy_steps_up_only_outside_the_band():
    policy = StepScalingPolicy(high_utilisation=2.0, low_utilisation=0.5, step=2, cooldown_s=0.0)
    assert policy.desired_replicas(_sample(0.0, in_flight=10, replicas=2)) == 4  # util 5.0
    assert policy.desired_replicas(_sample(1.0, in_flight=4, replicas=4)) == 4   # util 1.0: hold
    assert policy.desired_replicas(_sample(2.0, in_flight=1, replicas=4)) == 2   # util 0.25
    assert policy.desired_replicas(_sample(3.0, in_flight=0, replicas=1)) == 1   # floor


def test_step_policy_respects_cooldown():
    policy = StepScalingPolicy(high_utilisation=2.0, low_utilisation=0.5, step=1, cooldown_s=5.0)
    assert policy.desired_replicas(_sample(0.0, in_flight=10, replicas=1)) == 2
    # Still overloaded, but inside the cooldown window: hold.
    assert policy.desired_replicas(_sample(2.0, in_flight=10, replicas=2)) == 2
    assert policy.desired_replicas(_sample(4.9, in_flight=10, replicas=2)) == 2
    # Cooldown expired: the next step fires.
    assert policy.desired_replicas(_sample(5.0, in_flight=10, replicas=2)) == 3


def test_step_policy_never_thrashes_on_a_constant_rate():
    # Demand per replica sits inside the band forever: the pool never moves.
    policy = StepScalingPolicy(high_utilisation=2.0, low_utilisation=0.5, step=1, cooldown_s=3.0)
    for tick in range(100):
        assert policy.desired_replicas(_sample(float(tick), in_flight=4, replicas=4)) == 4


def test_step_policy_staircases_one_load_change_through_cooldowns():
    policy = StepScalingPolicy(high_utilisation=2.0, low_utilisation=0.5, step=1, cooldown_s=2.0)
    replicas, actions = 1, []
    for tick in range(12):
        desired = policy.desired_replicas(_sample(float(tick), in_flight=12, replicas=replicas))
        if desired != replicas:
            actions.append(tick)
            replicas = desired
    # One change per cooldown window, never faster.
    assert all(b - a >= 2 for a, b in zip(actions, actions[1:]))
    assert replicas > 1


def test_step_policy_voids_cooldown_when_the_action_never_took_effect():
    # Pool pinned at the autoscaler's max: the recommendation is clamped to
    # a no-op every tick.  When load collapses, the scale-down must fire
    # immediately — a change that never happened starts no cooldown.
    policy = StepScalingPolicy(high_utilisation=2.0, low_utilisation=0.5, step=1, cooldown_s=10.0)
    for tick in range(5):
        # Recommends 5, but the pool stays at 4 (clamp/arbiter denial).
        assert policy.desired_replicas(_sample(float(tick), in_flight=20, replicas=4)) == 5
    assert policy.desired_replicas(_sample(5.0, in_flight=0, replicas=4)) == 3


def test_step_policy_rejects_bad_parameters():
    with pytest.raises(AutoscalerError):
        StepScalingPolicy(high_utilisation=0.5, low_utilisation=0.5)
    with pytest.raises(AutoscalerError):
        StepScalingPolicy(step=0)
    with pytest.raises(AutoscalerError):
        StepScalingPolicy(cooldown_s=-1.0)


# -- predictive policy --------------------------------------------------------------


def test_predictive_policy_prewarms_ahead_of_a_ramp():
    # Feed a linear ramp: the Holt forecast extrapolates the trend, so the
    # desired pool exceeds what current demand alone justifies — replicas
    # are provisioned ahead of arrivals (pre-warm), unlike the reactive
    # policy on the same samples.
    predictive = PredictiveScalingPolicy(horizon_s=10.0)
    reactive = TargetConcurrencyPolicy(1.0)
    service = 0.5
    last_predicted = last_reactive = 0
    for tick in range(20):
        rate = 2.0 * tick  # +2 rps per second
        demand = int(rate * service)  # Little's law: the *current* load
        sample = _sample(float(tick), in_flight=demand, rate=rate, service=service)
        last_predicted = predictive.desired_replicas(sample)
        last_reactive = reactive.desired_replicas(sample)
    assert predictive.forecast_rps() > 2.0 * 19  # forecast leads the rate
    assert last_predicted > last_reactive


def test_predictive_policy_falls_back_to_demand_without_service_estimate():
    policy = PredictiveScalingPolicy(horizon_s=10.0)
    sample = _sample(0.0, in_flight=3, queued=2, rate=50.0, service=0.0)
    assert policy.desired_replicas(sample) == 5  # reactive floor only


def test_predictive_policy_rejects_bad_parameters():
    with pytest.raises(AutoscalerError):
        PredictiveScalingPolicy(horizon_s=-1.0)
    with pytest.raises(AutoscalerError):
        PredictiveScalingPolicy(target_concurrency=0.0)


def test_make_scaling_policy_knows_every_name():
    for name in ("target", "fixed", "none", "step", "predictive"):
        assert make_scaling_policy(name).name in (name, "target-concurrency")
    with pytest.raises(AutoscalerError):
        make_scaling_policy("quantum")


def _diurnal_tenant():
    return TenantSpec(
        name="app",
        mode="roadrunner-user",
        weight=1,
        arrivals=DiurnalArrivals(
            peak_rps=50.0, trough_rps=1.0, duration_s=80.0, period_s=40.0,
            function="app", payload_mb=200.0, seed=5,
        ),
    )


def _run_diurnal(policy_factory):
    engine = MultiTenantTrafficEngine(
        [_diurnal_tenant()],
        config=TrafficConfig(nodes=4, initial_replicas=1),
        fairness=FairnessPolicy.WFQ,
        oversubscription=4.0,
        autoscaler_factory=lambda: Autoscaler(
            policy_factory(),
            min_replicas=1,
            max_replicas=32,
            # A short keep-alive punishes reactive thrash: every dip the
            # reactive policy chases costs a fresh cold start on the way up.
            keep_alive_s=0.5,
        ),
    )
    return engine.run()


def test_predictive_pays_fewer_cold_starts_than_reactive_on_diurnal_load():
    reactive = _run_diurnal(lambda: TargetConcurrencyPolicy(1.0)).tenants["app"]
    predictive = _run_diurnal(
        lambda: PredictiveScalingPolicy(horizon_s=8.0)
    ).tenants["app"]
    # Same seeded arrivals.
    assert reactive.offered == predictive.offered > 0
    # The smoothed forecast rides the diurnal wave instead of chasing every
    # Poisson dip: strictly fewer cold starts, no worse tail.
    assert predictive.cold_starts < reactive.cold_starts
    assert predictive.latency.p99_s <= reactive.latency.p99_s


# -- per-class SLO export round-trip ------------------------------------------------


def _classed_records():
    return [
        RequestRecord(
            request_id=0, function="f", outcome=RequestOutcome.COMPLETED,
            arrival_s=0.0, dispatch_s=0.1, completion_s=0.4,
            request_class="interactive", deadline_s=0.5,
        ),
        RequestRecord(
            request_id=1, function="f", outcome=RequestOutcome.COMPLETED,
            arrival_s=0.0, dispatch_s=0.2, completion_s=1.0,
            request_class="interactive", deadline_s=0.5,  # missed
        ),
        RequestRecord(
            request_id=2, function="f", outcome=RequestOutcome.TIMED_OUT,
            arrival_s=0.1, request_class="interactive", deadline_s=0.6,  # missed
        ),
        RequestRecord(
            request_id=3, function="f", outcome=RequestOutcome.COMPLETED,
            arrival_s=0.2, dispatch_s=0.3, completion_s=0.9,
            request_class="batch",
        ),
        RequestRecord(
            request_id=4, function="f", outcome=RequestOutcome.DROPPED,
            arrival_s=0.3, request_class="batch",
        ),
    ]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_per_class_counters_round_trip_including_zero_request_classes(fmt):
    summary = summarize(
        mode="roadrunner-user",
        pattern="trace",
        duration_s=2.0,
        records=_classed_records(),
        declared_classes=("audit",),  # declared, zero requests
    )
    by_name = {cls.name: cls for cls in summary.classes}
    assert set(by_name) == {"interactive", "batch", "audit"}
    assert by_name["interactive"].deadline_total == 3
    assert by_name["interactive"].deadline_met == 1
    assert by_name["interactive"].timed_out == 1
    assert by_name["batch"].dropped == 1
    assert by_name["batch"].deadline_total == 0
    assert by_name["audit"].offered == 0
    assert summary.deadline_met_ratio == pytest.approx(1 / 3)

    figure = traffic_to_figure({"app": summary}, x_label="tenant")
    if fmt == "json":
        restored = traffic_from_figure(figure_from_json(figure_to_json(figure)))
    else:
        restored = traffic_from_figure(figure_from_csv(figure_to_csv(figure)))
    # Every per-class counter — the zero-request class included — survives.
    assert restored["app"].classes == summary.classes
    assert restored["app"].deadline_met == summary.deadline_met
    assert restored["app"].deadline_total == summary.deadline_total

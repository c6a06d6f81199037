"""Tests for the autoscaler policies and control-loop decisions."""

import pytest

from repro.traffic.autoscaler import (
    Autoscaler,
    AutoscalerError,
    FixedReplicasPolicy,
    LoadSample,
    NoScalingPolicy,
    TargetConcurrencyPolicy,
)


def _sample(in_flight=0, queued=0, replicas=1, time_s=0.0):
    return LoadSample(time_s=time_s, in_flight=in_flight, queued=queued, replicas=replicas)


def test_target_concurrency_sizes_for_demand():
    policy = TargetConcurrencyPolicy(target_concurrency=2.0)
    assert policy.desired_replicas(_sample(in_flight=4, queued=0)) == 2
    assert policy.desired_replicas(_sample(in_flight=4, queued=3)) == 4
    assert policy.desired_replicas(_sample(in_flight=0, queued=0)) == 0


def test_fixed_and_none_policies():
    assert FixedReplicasPolicy(5).desired_replicas(_sample(in_flight=100)) == 5
    assert NoScalingPolicy().desired_replicas(_sample(in_flight=100, replicas=3)) == 3


def test_autoscaler_clamps_to_bounds():
    autoscaler = Autoscaler(TargetConcurrencyPolicy(1.0), min_replicas=2, max_replicas=6)
    low = autoscaler.evaluate(_sample(in_flight=0, replicas=4))
    assert low.desired == 2
    assert low.scale_down == 2
    high = autoscaler.evaluate(_sample(in_flight=50, replicas=4))
    assert high.desired == 6
    assert high.scale_up == 2
    assert (low.time_s, low.current, high.current) == (0.0, 4, 4)


def test_keep_alive_gates_reclaim():
    autoscaler = Autoscaler(TargetConcurrencyPolicy(1.0), keep_alive_s=10.0)
    assert not autoscaler.reclaimable(now=5.0, idle_since=0.0)
    assert autoscaler.reclaimable(now=10.0, idle_since=0.0)


def test_zero_keep_alive_never_reclaims_at_the_idling_instant():
    # Regression: with keep_alive_s=0 a replica that became idle at this
    # very sim-time instant must NOT be reclaimable — a completion and a
    # control tick can share a timestamp, and the dispatch happening at
    # that instant has to win the race against the reclaimer.
    autoscaler = Autoscaler(TargetConcurrencyPolicy(1.0), keep_alive_s=0.0)
    assert not autoscaler.reclaimable(now=7.0, idle_since=7.0)
    assert autoscaler.reclaimable(now=7.0 + 1e-9, idle_since=7.0)
    # A replica whose idle_since lies in the future (still cold-starting)
    # is likewise untouchable.
    assert not autoscaler.reclaimable(now=7.0, idle_since=8.0)


def test_memory_pressure_shrinks_the_keep_alive_window():
    # Keep-alive economics: a warm replica costs RSS-seconds, so the
    # window shrinks linearly with node memory pressure — zero at a full
    # node — and is unchanged when no memory model is active.
    autoscaler = Autoscaler(TargetConcurrencyPolicy(1.0), keep_alive_s=20.0)
    assert autoscaler.effective_keep_alive_s() == 20.0
    assert autoscaler.effective_keep_alive_s(0.5) == 10.0
    assert autoscaler.effective_keep_alive_s(1.0) == 0.0
    assert autoscaler.effective_keep_alive_s(2.0) == 0.0  # clamped
    assert autoscaler.effective_keep_alive_s(-1.0) == 20.0  # clamped
    # Idle 10s: not reclaimable at zero pressure, reclaimable at 50%.
    assert not autoscaler.reclaimable(now=10.0, idle_since=0.0)
    assert autoscaler.reclaimable(now=10.0, idle_since=0.0, memory_pressure=0.5)


def test_invalid_parameters_raise():
    with pytest.raises(AutoscalerError):
        TargetConcurrencyPolicy(0)
    with pytest.raises(AutoscalerError):
        FixedReplicasPolicy(0)
    with pytest.raises(AutoscalerError):
        Autoscaler(NoScalingPolicy(), min_replicas=-1)
    with pytest.raises(AutoscalerError):
        Autoscaler(NoScalingPolicy(), min_replicas=5, max_replicas=2)
    with pytest.raises(AutoscalerError):
        Autoscaler(NoScalingPolicy(), control_interval_s=0)

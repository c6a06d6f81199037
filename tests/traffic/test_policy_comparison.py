"""Scaling-policy comparisons share only the arrivals between runs.

Stateful policies (``step`` keeps a cooldown clock, ``predictive`` a rate
forecast) must never carry state from one compared run into the next, so
every :func:`autoscaler_factory` call builds a fresh autoscaler around a
fresh policy, and a policy compared alongside another gives exactly the
summary it gives when run alone.
"""

import pytest

from repro.traffic import (
    SCALING_POLICIES,
    Autoscaler,
    BurstyArrivals,
    TenantSpec,
    TrafficConfig,
    autoscaler_factory,
    compare_scaling_policies,
)


@pytest.mark.parametrize("name", SCALING_POLICIES)
def test_each_factory_call_builds_a_fresh_autoscaler_and_policy(name):
    factory = autoscaler_factory(name, min_replicas=0, max_replicas=8, keep_alive_s=5.0)
    first, second = factory(), factory()
    assert isinstance(first, Autoscaler) and isinstance(second, Autoscaler)
    assert first is not second
    assert first.policy is not second.policy
    assert type(first.policy) is type(second.policy)
    assert (first.min_replicas, first.max_replicas, first.keep_alive_s) == (0, 8, 5.0)


def _tenants():
    # Bursts heavy enough that both policies scale, so a policy that kept
    # its forecast from an earlier run would size the pool differently.
    return [
        TenantSpec(
            name="app",
            mode="roadrunner-user",
            arrivals=BurstyArrivals(
                on_rate_rps=100.0, duration_s=20.0, on_s=3.0, off_s=4.0,
                function="app", payload_mb=20.0, seed=3,
            ),
        )
    ]


def test_compared_policies_match_each_policy_run_alone():
    config = TrafficConfig(nodes=2)
    policies = {
        "step": autoscaler_factory("step", cooldown_s=2.0),
        "predictive": autoscaler_factory("predictive", horizon_s=4.0),
    }
    compared = compare_scaling_policies(_tenants(), policies, config=config)
    assert list(compared) == ["step", "predictive"]
    assert compared["step"].cluster.offered == compared["predictive"].cluster.offered > 0
    assert compared["predictive"].cluster.cold_starts > 1
    for label, factory in policies.items():
        alone = compare_scaling_policies(_tenants(), {label: factory}, config=config)
        assert alone[label] == compared[label]

"""Scaling-policy comparison: the same seeded arrivals under every policy.

The question an operator actually asks of an autoscaler is comparative:
given *my* traffic, which policy holds p99 and the deadline-met ratio at
the fewest cold starts and replica-seconds?  This module answers it the way
every figure in the reproduction does — byte-identical seeded arrivals,
one engine run per candidate, no policy state shared between runs:

* :func:`autoscaler_factory` builds the named policy's fresh-per-run
  factory (stateful policies like step/predictive must never leak state
  across compared runs);
* :func:`compare_scaling_policies` runs one :class:`MultiTenantTrafficEngine`
  per policy over the same tenant specs and returns the per-policy
  :class:`~repro.traffic.tenants.MultiTenantSummary` map;
* :func:`policy_cluster_summaries` flattens that map to the cluster-rollup
  rows the comparison figure and table plot.

Export the result through :func:`repro.metrics.export.policies_to_figure`
(one figure: p99, deadline-met ratio, cold starts, replica-seconds per
policy, CSV/JSON round-trip included).
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.platform.gateway import FairnessPolicy, IntraTenantOrder
from repro.traffic.autoscaler import (
    Autoscaler,
    AutoscalerError,
    FixedReplicasPolicy,
    NoScalingPolicy,
    PredictiveScalingPolicy,
    ScalingPolicy,
    StepScalingPolicy,
    TargetConcurrencyPolicy,
)
from repro.traffic.engine import MultiTenantTrafficEngine, TrafficConfig
from repro.traffic.slo import TrafficSummary
from repro.traffic.tenants import MultiTenantSummary, TenantSpec

#: Policy names `repro traffic --scaling-policy/--compare-policies` accepts.
SCALING_POLICIES: Tuple[str, ...] = ("target", "fixed", "none", "step", "predictive")


def make_scaling_policy(
    name: str,
    target_concurrency: float = 1.0,
    fixed_replicas: int = 4,
    step: int = 1,
    high_utilisation: float = 2.0,
    low_utilisation: float = 0.5,
    cooldown_s: float = 10.0,
    horizon_s: float = 10.0,
) -> ScalingPolicy:
    """One *fresh* scaling policy by CLI name (stateful ones included)."""
    if name == "target":
        return TargetConcurrencyPolicy(target_concurrency)
    if name == "fixed":
        return FixedReplicasPolicy(fixed_replicas)
    if name == "none":
        return NoScalingPolicy()
    if name == "step":
        return StepScalingPolicy(
            high_utilisation=high_utilisation,
            low_utilisation=low_utilisation,
            step=step,
            cooldown_s=cooldown_s,
        )
    if name == "predictive":
        return PredictiveScalingPolicy(
            horizon_s=horizon_s, target_concurrency=target_concurrency
        )
    raise AutoscalerError(
        "unknown scaling policy %r (known: %s)" % (name, ", ".join(SCALING_POLICIES))
    )


def autoscaler_factory(
    name: str,
    min_replicas: int = 1,
    max_replicas: int = 64,
    keep_alive_s: float = 30.0,
    control_interval_s: float = 1.0,
    **policy_kwargs,
) -> Callable[[], Autoscaler]:
    """A factory producing one fresh autoscaler (and policy) per call."""

    def build() -> Autoscaler:
        return Autoscaler(
            make_scaling_policy(name, **policy_kwargs),
            min_replicas=min_replicas,
            max_replicas=max_replicas,
            keep_alive_s=keep_alive_s,
            control_interval_s=control_interval_s,
        )

    return build


def compare_scaling_policies(
    tenants: Sequence[TenantSpec],
    policies: Mapping[str, Callable[[], Autoscaler]],
    config: Optional[TrafficConfig] = None,
    fairness: FairnessPolicy = FairnessPolicy.WFQ,
    starvation_guard: int = 32,
    intra: IntraTenantOrder = IntraTenantOrder.FIFO,
    oversubscription: float = 2.0,
) -> Dict[str, MultiTenantSummary]:
    """Run the same tenant specs once per policy, sharing only the arrivals.

    ``policies`` maps a label (usually the policy name) to an autoscaler
    factory; each run builds fresh autoscalers through it.  Tenant arrival
    processes are seeded, so every run regenerates byte-identical streams —
    any difference in the summaries is the policy's doing.  The runs go one
    after another; calibration is memoised per process, so only the first
    run measures each service time.
    """
    if not policies:
        raise AutoscalerError("need at least one policy to compare")
    return {
        label: MultiTenantTrafficEngine(
            tenants,
            config=config,
            fairness=fairness,
            starvation_guard=starvation_guard,
            autoscaler_factory=factory,
            oversubscription=oversubscription,
            intra=intra,
        ).run()
        for label, factory in policies.items()
    }


def policy_cluster_summaries(
    results: Mapping[str, MultiTenantSummary],
) -> Dict[str, TrafficSummary]:
    """The cluster-rollup row of each compared policy (figure/table input)."""
    return {label: summary.cluster for label, summary in results.items()}

"""Replica autoscaling: closing the loop on observed load.

Each control interval the autoscaler samples the per-function load (requests
in flight plus requests queued at the gateway) and recommends a pool size.
Scaling *up* pays each new replica's cold start — the paper's Fig. 2a costs,
charged through the gateway — and the replica only starts serving once that
cold start completes.  Scaling *down* reclaims replicas that have been idle
for the keep-alive window, mirroring how FaaS platforms hold instances warm
for a grace period before deprovisioning.

Policies are pluggable:

* :class:`TargetConcurrencyPolicy` — Knative-style: keep roughly
  ``target_concurrency`` requests per replica;
* :class:`FixedReplicasPolicy` — a static pool (what the paper's fan-out
  experiments implicitly assume);
* :class:`NoScalingPolicy` — never change the pool (pure queueing);
* :class:`StepScalingPolicy` — AWS-style threshold bands: step the pool up
  when utilisation leaves the band, with a cooldown between actions so a
  constant load never makes it thrash;
* :class:`PredictiveScalingPolicy` — a Holt (level + trend) forecast of the
  arrival rate sized via Little's law, pre-warming replicas ``horizon_s``
  ahead of a diurnal ramp instead of paying the cold starts at its crest.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional


class AutoscalerError(ValueError):
    """Raised for invalid scaling parameters."""


@dataclass(frozen=True)
class LoadSample:
    """What the autoscaler observes at one control tick."""

    time_s: float
    in_flight: int
    queued: int
    replicas: int
    #: Mean arrival rate since the previous tick (0.0 when unknown).
    arrival_rate_rps: float = 0.0
    #: EWMA of measured service times, fed back from the engine (0.0 = no data).
    service_time_s: float = 0.0

    @property
    def demand(self) -> int:
        """Requests wanting a replica right now."""
        return self.in_flight + self.queued


class ScalingPolicy(ABC):
    """Maps one load sample to a desired replica count (before clamping)."""

    name: str = "abstract"

    @abstractmethod
    def desired_replicas(self, sample: LoadSample) -> int:
        """The pool size this policy wants, given the observed load."""


class TargetConcurrencyPolicy(ScalingPolicy):
    """Knative-style: size the pool for ``target_concurrency`` per replica."""

    name = "target-concurrency"

    def __init__(self, target_concurrency: float = 1.0) -> None:
        if target_concurrency <= 0:
            raise AutoscalerError("target_concurrency must be positive")
        self.target_concurrency = target_concurrency

    def desired_replicas(self, sample: LoadSample) -> int:
        return int(math.ceil(sample.demand / self.target_concurrency))


class FixedReplicasPolicy(ScalingPolicy):
    """A static pool of ``replicas`` instances regardless of load."""

    name = "fixed"

    def __init__(self, replicas: int) -> None:
        if replicas < 1:
            raise AutoscalerError("a fixed pool needs at least one replica")
        self.replicas = replicas

    def desired_replicas(self, sample: LoadSample) -> int:
        return self.replicas


class NoScalingPolicy(ScalingPolicy):
    """Keep whatever pool exists; excess load queues."""

    name = "none"

    def desired_replicas(self, sample: LoadSample) -> int:
        return sample.replicas


class StepScalingPolicy(ScalingPolicy):
    """Threshold bands with a cooldown: step up/down, never thrash.

    Utilisation is demand per replica.  Above ``high_utilisation`` the pool
    grows by ``step`` replicas, below ``low_utilisation`` it shrinks by
    ``step`` — but never twice within ``cooldown_s``, so one load change
    ripples through as a staircase instead of an overshooting jump, and a
    constant load inside the band never moves the pool at all.

    The policy is stateful (it remembers its last action time); give each
    engine run a fresh instance, as the autoscaler factories do.
    """

    name = "step"

    def __init__(
        self,
        high_utilisation: float = 2.0,
        low_utilisation: float = 0.5,
        step: int = 1,
        cooldown_s: float = 10.0,
    ) -> None:
        if high_utilisation <= low_utilisation:
            raise AutoscalerError("high_utilisation must exceed low_utilisation")
        if low_utilisation < 0:
            raise AutoscalerError("low_utilisation must be non-negative")
        if step < 1:
            raise AutoscalerError("step must be >= 1")
        if cooldown_s < 0:
            raise AutoscalerError("cooldown_s must be non-negative")
        self.high_utilisation = high_utilisation
        self.low_utilisation = low_utilisation
        self.step = step
        self.cooldown_s = cooldown_s
        self._last_action_s: Optional[float] = None
        self._replicas_at_action: Optional[int] = None

    def desired_replicas(self, sample: LoadSample) -> int:
        if (
            self._last_action_s is not None
            and sample.replicas == self._replicas_at_action
        ):
            # The recommended change never took effect (clamped at the
            # autoscaler's min/max or denied by the capacity arbiter): a
            # no-op starts no cooldown, or a pool pinned at a bound would
            # keep deferring its next *real* action by a full cooldown.
            self._last_action_s = None
        if (
            self._last_action_s is not None
            and sample.time_s - self._last_action_s < self.cooldown_s
        ):
            return sample.replicas
        utilisation = sample.demand / max(1, sample.replicas)
        if utilisation > self.high_utilisation:
            self._note_action(sample)
            return sample.replicas + self.step
        if utilisation < self.low_utilisation and sample.replicas > 1:
            self._note_action(sample)
            return sample.replicas - self.step
        return sample.replicas

    def _note_action(self, sample: LoadSample) -> None:
        self._last_action_s = sample.time_s
        self._replicas_at_action = sample.replicas


class PredictiveScalingPolicy(ScalingPolicy):
    """Holt's linear forecast of the arrival rate, sized via Little's law.

    Each tick folds the observed arrival rate into a smoothed level and
    trend, extrapolates ``horizon_s`` ahead, and sizes the pool for the
    *forecast* rate: ``forecast × service_time / target_concurrency``
    replicas (Little's law).  On a diurnal ramp the positive trend makes
    the forecast lead the actual rate, so replicas are registered — and
    their cold starts paid — *before* the crest arrives; a purely reactive
    policy pays them at the crest, while the backlog is already growing.
    The reactive demand floor keeps a backlog from outwaiting a bad
    forecast.

    Stateful like :class:`StepScalingPolicy`: one instance per run.
    """

    name = "predictive"

    #: Holt smoothing weights of the newest level and trend observations.
    ALPHA = 0.5
    BETA = 0.3

    def __init__(self, horizon_s: float = 10.0, target_concurrency: float = 1.0) -> None:
        if horizon_s < 0:
            raise AutoscalerError("horizon_s must be non-negative")
        if target_concurrency <= 0:
            raise AutoscalerError("target_concurrency must be positive")
        self.horizon_s = horizon_s
        self.target_concurrency = target_concurrency
        self._level: Optional[float] = None
        self._trend = 0.0
        self._last_time_s: Optional[float] = None

    def forecast_rps(self) -> float:
        """The rate the policy currently expects ``horizon_s`` from now."""
        if self._level is None:
            return 0.0
        return max(0.0, self._level + self._trend * self.horizon_s)

    def desired_replicas(self, sample: LoadSample) -> int:
        rate = max(0.0, sample.arrival_rate_rps)
        if self._level is None:
            self._level = rate
        else:
            interval = 1.0
            if self._last_time_s is not None and sample.time_s > self._last_time_s:
                interval = sample.time_s - self._last_time_s
            previous = self._level
            self._level = self.ALPHA * rate + (1.0 - self.ALPHA) * (
                previous + self._trend * interval
            )
            # Trend is kept per second so the horizon extrapolation is
            # independent of the control interval.
            self._trend = (
                self.BETA * ((self._level - previous) / interval)
                + (1.0 - self.BETA) * self._trend
            )
        self._last_time_s = sample.time_s
        reactive = int(math.ceil(sample.demand / self.target_concurrency))
        predicted = 0
        if sample.service_time_s > 0:
            predicted = int(
                math.ceil(self.forecast_rps() * sample.service_time_s / self.target_concurrency)
            )
        return max(reactive, predicted)


@dataclass(frozen=True)
class ScalingDecision:
    """The autoscaler's output for one control tick."""

    time_s: float
    current: int
    desired: int

    @property
    def scale_up(self) -> int:
        return max(0, self.desired - self.current)

    @property
    def scale_down(self) -> int:
        return max(0, self.current - self.desired)


class Autoscaler:
    """Per-function control loop over a :class:`ScalingPolicy`.

    The autoscaler only *decides*; the traffic engine applies decisions
    (registering replicas through the gateway, which charges cold starts,
    and reclaiming idle ones).  That split keeps the policy logic testable
    without a cluster.
    """

    def __init__(
        self,
        policy: ScalingPolicy,
        min_replicas: int = 1,
        max_replicas: int = 64,
        keep_alive_s: float = 30.0,
        control_interval_s: float = 1.0,
    ) -> None:
        if min_replicas < 0:
            raise AutoscalerError("min_replicas must be non-negative")
        if max_replicas < max(1, min_replicas):
            raise AutoscalerError("max_replicas must be >= max(1, min_replicas)")
        if keep_alive_s < 0:
            raise AutoscalerError("keep_alive_s must be non-negative")
        if control_interval_s <= 0:
            raise AutoscalerError("control_interval_s must be positive")
        self.policy = policy
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.keep_alive_s = keep_alive_s
        self.control_interval_s = control_interval_s

    def evaluate(self, sample: LoadSample) -> ScalingDecision:
        """Clamp the policy's desire to [min_replicas, max_replicas]."""
        desired = self.policy.desired_replicas(sample)
        desired = max(self.min_replicas, min(self.max_replicas, desired))
        return ScalingDecision(time_s=sample.time_s, current=sample.replicas, desired=desired)

    def effective_keep_alive_s(self, memory_pressure: float = 0.0) -> float:
        """The keep-alive window, discounted by node memory pressure.

        Holding a warm replica is not free: it occupies its RSS for the
        whole window (``rss_mb x keep_alive_s`` RSS-seconds), which is only
        worth paying while that memory is cheap.  As the replica's node
        fills up (``memory_pressure`` = used/budget, clamped to [0, 1]) the
        window shrinks linearly — at a full node an idle replica is worth
        nothing and is reclaimed immediately, trading a possible future
        cold start for headroom now.  With no memory model (pressure 0.0)
        the configured window applies unchanged.
        """
        pressure = min(1.0, max(0.0, memory_pressure))
        return self.keep_alive_s * (1.0 - pressure)

    def reclaimable(
        self, now: float, idle_since: float, memory_pressure: float = 0.0
    ) -> bool:
        """Whether a replica idle since ``idle_since`` is past its keep-alive.

        The boundary is pinned so a replica that became idle at this very
        sim-time instant is never reclaimed (``elapsed > 0`` required):
        with ``keep_alive_s=0`` a completion and a control tick can land on
        the same timestamp, and the request being dispatched at that
        instant must win the race against the reclaimer.
        """
        elapsed = now - idle_since
        if elapsed <= 0.0:
            return False
        return elapsed >= self.effective_keep_alive_s(memory_pressure)

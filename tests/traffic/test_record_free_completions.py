"""Record-free completions: sketch mode reduces each request straight to an Observation.

When nothing reads a :class:`RequestRecord` (sketch mode, no telemetry;
a middleware pipeline's hooks take the outcome and completion instant), the
runtime builds none: it checks the request's times with :func:`check_times`
and folds one :class:`Observation` built from the request's scalars.  That
observation must equal, slot for slot, the one the record path reduces,
and an out-of-order completion must still raise the record's
:class:`SloError`.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.middleware import build_pipeline
from repro.obs.streaming import Observation
from repro.traffic.arrivals import PoissonArrivals, Request
from repro.traffic.autoscaler import Autoscaler, TargetConcurrencyPolicy
from repro.traffic.cluster_runtime import ClusterRuntime
from repro.traffic.engine import TrafficConfig, TrafficEngine
from repro.traffic.slo import SERVED_OUTCOMES, RequestOutcome, RequestRecord, SloError

times = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
gaps = st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=100.0))
cold_waits = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=10.0))
deadline_offsets = st.one_of(st.none(), st.floats(min_value=1e-6, max_value=100.0))


@st.composite
def finished_requests(draw):
    """Scalars of one valid finished request, over every outcome."""
    outcome = draw(st.sampled_from(list(RequestOutcome)))
    arrival = draw(times)
    dispatch = completion = None
    cold_wait = 0.0
    if outcome is RequestOutcome.COMPLETED:
        dispatch = arrival + draw(gaps)
        completion = dispatch + draw(gaps)
        cold_wait = draw(cold_waits)
    elif outcome in SERVED_OUTCOMES:
        completion = arrival + draw(gaps)
    offset = draw(deadline_offsets)
    deadline = None if offset is None else arrival + offset
    request_class = draw(st.sampled_from(["standard", "gold"]))
    return outcome, arrival, dispatch, completion, cold_wait, request_class, deadline


def _record(request_id, outcome, arrival, dispatch, completion, cold_wait, klass, deadline):
    return RequestRecord(
        request_id=request_id,
        function="f",
        outcome=outcome,
        arrival_s=arrival,
        dispatch_s=dispatch,
        completion_s=completion,
        cold_start_wait_s=cold_wait,
        request_class=klass,
        deadline_s=deadline,
    )


def _slots(observation):
    # repr keeps floats bit-exact and tells 0 from 0.0 and False from None.
    return [repr(getattr(observation, name)) for name in Observation.__slots__]


@given(scalars=finished_requests())
@settings(max_examples=300, deadline=None)
def test_scalar_observation_equals_the_record_reduction(scalars):
    record = _record(7, *scalars)
    observation = Observation(*scalars)
    assert _slots(observation) == _slots(Observation.of_record(record))
    # The stage durations mirror the record's own definitions.
    if record.served:
        assert observation.latency == record.latency_s
    if record.outcome is RequestOutcome.COMPLETED:
        assert (observation.queueing, observation.service) == (
            record.queueing_delay_s,
            record.service_s,
        )
    assert observation.deadline_met == record.deadline_met


def _steady_run(retain_records, requests=None, middleware=None):
    requests = requests or PoissonArrivals(
        rate_rps=100, duration_s=10, payload_mb=64.0, seed=5
    ).generate()
    engine = TrafficEngine(
        "roadrunner-user",
        autoscaler=Autoscaler(TargetConcurrencyPolicy(1.0), min_replicas=1, max_replicas=1),
        config=TrafficConfig(max_queue=5, queue_timeout_s=2.0, retain_records=retain_records),
        middleware=middleware,
    )
    return engine.run(requests)


@functools.lru_cache(maxsize=None)
def _record_free_runtime():
    """A sketch-mode runtime (no telemetry, no pipeline) after a short run."""
    runtimes = []
    original_init = ClusterRuntime.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        runtimes.append(self)

    requests = PoissonArrivals(rate_rps=20, duration_s=2, payload_mb=1.0, seed=3).generate()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ClusterRuntime, "__init__", recording_init)
        _steady_run(False, requests)
    (runtime,) = runtimes
    return runtime


@st.composite
def out_of_order_requests(draw):
    """A COMPLETED, CACHED or COALESCED request whose times run backwards."""
    arrival = draw(st.floats(min_value=1.0, max_value=1e4))
    back = draw(st.floats(min_value=1e-6, max_value=0.5))
    case = draw(st.sampled_from(["dispatch", "completion", "cached", "coalesced"]))
    if case == "dispatch":  # dispatched before it arrived
        return RequestOutcome.COMPLETED, arrival, arrival - back, arrival + 1.0
    if case == "completion":  # finished before it was dispatched
        return RequestOutcome.COMPLETED, arrival, arrival + 1.0, arrival + 1.0 - back
    outcome = RequestOutcome.CACHED if case == "cached" else RequestOutcome.COALESCED
    return outcome, arrival, None, arrival - back


@given(backwards=out_of_order_requests())
@settings(max_examples=100, deadline=None)
def test_out_of_order_times_raise_the_record_error_on_the_record_free_path(backwards):
    outcome, arrival, dispatch, completion = backwards
    with pytest.raises(SloError) as from_record:
        _record(41, outcome, arrival, dispatch, completion, 0.0, "standard", None)
    runtime = _record_free_runtime()
    assert not runtime._builds_records
    state = runtime.states[0]
    request = Request(request_id=41, arrival_s=arrival, function=state.function, payload_bytes=1)
    with pytest.raises(SloError) as record_free:
        runtime.resolve(state, request, outcome, completion, dispatch)
    assert str(record_free.value) == str(from_record.value)


def _count_builds(monkeypatch):
    counts = {"records": 0, "observations": 0}
    record_new = RequestRecord.__new__
    observation_init = Observation.__init__

    def counting_record(cls, *args, **kwargs):
        counts["records"] += 1
        return record_new(cls, *args, **kwargs)

    def counting_observation(self, *args):
        counts["observations"] += 1
        observation_init(self, *args)

    monkeypatch.setattr(RequestRecord, "__new__", counting_record)
    monkeypatch.setattr(Observation, "__init__", counting_observation)
    return counts


def test_sketch_mode_builds_no_record_and_one_observation_per_request(monkeypatch):
    counts = _count_builds(monkeypatch)
    summary = _steady_run(retain_records=False)
    assert summary.completed < summary.offered  # drops and timeouts too
    assert counts == {"records": 0, "observations": summary.offered}


def test_exact_mode_builds_one_record_per_request(monkeypatch):
    counts = _count_builds(monkeypatch)
    summary = _steady_run(retain_records=True)
    assert summary.completed < summary.offered
    assert counts["records"] == summary.offered


OUTCOME_COUNTS = (
    "offered", "completed", "timed_out", "dropped", "shed", "cached", "coalesced",
    "rate_limited", "rejected",
)


def test_a_pipeline_alone_builds_no_record(monkeypatch):
    """Coalesced followers and cache hits resolve from the outcome and instant.

    The followers a leader's completion releases are accounted as in an
    exact-mode run of the same pipeline, without a record built for anyone.
    """
    counts = _count_builds(monkeypatch)
    sketch = _steady_run(False, middleware=build_pipeline(["cache", "coalesce"], cache_ttl_s=0.05))
    assert counts == {"records": 0, "observations": sketch.offered}
    exact = _steady_run(True, middleware=build_pipeline(["cache", "coalesce"], cache_ttl_s=0.05))
    assert sketch.cached and sketch.coalesced and sketch.completed
    assert [getattr(sketch, name) for name in OUTCOME_COUNTS] == [
        getattr(exact, name) for name in OUTCOME_COUNTS
    ]

"""Record-free completions: sketch mode folds each request's scalars straight in.

When nothing reads a :class:`RequestRecord` (sketch mode, no telemetry;
a middleware pipeline's hooks take the outcome and completion instant), the
runtime builds none, and no other per-request object either: it checks the
request's times with :func:`check_times` and folds its scalars, in one
:meth:`Rollups.fold` call, into every rollup the request belongs to.  That
fold must agree with the record's own definitions, each request must be
folded exactly once into each of its rollups, and an out-of-order
completion must still raise the record's :class:`SloError`.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.middleware import build_pipeline
from repro.obs.streaming import Rollups, StreamingTrafficStats
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


STAGE_VALUES = (
    ("latency", "latency_s"),
    ("queueing", "queueing_delay_s"),
    ("service", "service_s"),
    ("cold_wait", "cold_start_wait_s"),
)


@given(scalars=finished_requests())
@settings(max_examples=300, deadline=None)
def test_scalar_fold_equals_the_record_reduction(scalars):
    record = _record(7, *scalars)
    folded = StreamingTrafficStats()
    Rollups((folded,)).fold(*scalars)
    exact = StreamingTrafficStats.of_records([record])
    for stats in (folded._totals, exact._totals):
        assert (stats.offered, getattr(stats, record.outcome.value)) == (1, 1)
        assert stats.deadline_total == (record.deadline_s is not None)
        assert stats.deadline_met == bool(record.deadline_met)
    # The stage durations mirror the record's own definitions, bit for bit
    # (repr tells 0 from 0.0), in the sketch's running sum and the samples.
    completed = record.outcome is RequestOutcome.COMPLETED
    for stage, name in STAGE_VALUES:
        sketch = getattr(folded.stages, stage)
        samples = getattr(exact.stages, stage).values
        assert sketch.count == len(samples) == int(completed)
        if completed:
            assert repr(sketch.sum) == repr(samples[0]) == repr(float(getattr(record, name)))
    served = folded._totals.latency_served
    assert served.count == int(record.served)
    if record.served:
        assert repr(served.sum) == repr(float(record.latency_s))
        assert exact._totals.latency_served.values.tolist() == [record.latency_s]


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
    """Count RequestRecord builds, fold calls and the folds each rollup receives."""
    counts = {"records": 0, "folds": 0, "per_rollup": {}}
    record_new = RequestRecord.__new__
    fold = Rollups.fold

    def counting_record(cls, *args, **kwargs):
        counts["records"] += 1
        return record_new(cls, *args, **kwargs)

    def counting_fold(rollups, *args):
        counts["folds"] += 1
        assert len(set(map(id, rollups))) == len(rollups)  # each rollup once
        for stream in rollups:
            counts["per_rollup"][id(stream)] = (
                stream,
                counts["per_rollup"].get(id(stream), (stream, 0))[1] + 1,
            )
        fold(rollups, *args)

    monkeypatch.setattr(RequestRecord, "__new__", counting_record)
    monkeypatch.setattr(Rollups, "fold", counting_fold)
    return counts


def _assert_folded_once_per_scope(counts, offered):
    """One fold call per offered request, and every rollup folded exactly
    once per request it counts, into each of the request's scopes."""
    assert counts["records"] == 0
    assert counts["folds"] == offered
    rollups = counts["per_rollup"].values()
    assert rollups and max(folds for _, folds in rollups) == offered
    for stream, folds in rollups:
        assert stream.offered == folds
        totals = stream._totals
        assert sum(
            stats.offered for stats in stream._classes.values() if stats is not totals
        ) in (0, folds)


def test_sketch_mode_folds_each_request_once_per_scope(monkeypatch):
    counts = _count_builds(monkeypatch)
    summary = _steady_run(retain_records=False)
    assert summary.completed < summary.offered  # drops and timeouts too
    _assert_folded_once_per_scope(counts, summary.offered)


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
    _assert_folded_once_per_scope(counts, sketch.offered)
    exact = _steady_run(True, middleware=build_pipeline(["cache", "coalesce"], cache_ttl_s=0.05))
    assert sketch.cached and sketch.coalesced and sketch.completed
    assert [getattr(sketch, name) for name in OUTCOME_COUNTS] == [
        getattr(exact, name) for name in OUTCOME_COUNTS
    ]

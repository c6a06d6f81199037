"""Property tests: the one-pass exact rollup equals one fold per scope.

In exact mode ``ClusterRuntime.snapshot`` reduces each retained record once
and folds it into its tenant's accumulator and the cluster's in the same
pass (:func:`repro.obs.streaming.fold_records`), tenant by tenant in
request-id order.  Every summary, class row and waterfall row must equal,
exactly, what :meth:`StreamingTrafficStats.of_records` gives when it folds
each scope's records on its own: per tenant, and for the cluster over every
tenant's records in that order.  Tenants mix several classes, and declare
classes no request uses.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.streaming import StreamingTrafficStats, fold_records
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.classes import RequestClass
from repro.traffic.engine import MultiTenantTrafficEngine, TrafficConfig
from repro.traffic.slo import SERVED_OUTCOMES, RequestOutcome, RequestRecord
from repro.traffic.tenants import TenantSpec

durations = st.one_of(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 1e-9, 0.1, 0.2, 0.3, 1.0 / 3.0, 7.7]),
)
CLASS_NAMES = ("batch", "gold", "interactive")
QUIET = ("quiet", "idle")  # declared, never requested


@st.composite
def records(draw):
    outcome = draw(st.sampled_from(list(RequestOutcome)))
    arrival = draw(durations)
    dispatch = completion = None
    cold_wait = 0.0
    if outcome is RequestOutcome.COMPLETED:
        dispatch = arrival + draw(durations)
        completion = dispatch + draw(durations)
        cold_wait = draw(durations)
    elif outcome in SERVED_OUTCOMES:
        completion = arrival + draw(durations)
    return RequestRecord(
        request_id=draw(st.integers(min_value=0, max_value=10_000)),
        function="f",
        outcome=outcome,
        arrival_s=arrival,
        dispatch_s=dispatch,
        completion_s=completion,
        cold_start_wait_s=cold_wait,
        request_class=draw(st.sampled_from(CLASS_NAMES)),
        deadline_s=draw(st.one_of(st.none(), durations.map(lambda d: arrival + d))),
    )


tenants = st.lists(
    st.tuples(
        st.lists(records(), max_size=25),
        st.lists(st.sampled_from(CLASS_NAMES + QUIET), unique=True, max_size=4),
    ),
    min_size=1,
    max_size=3,
)


def _view(stats, declared):
    """Everything a scope's accumulator reports: summary, class rows, waterfall."""
    return (
        stats.summary("m", "p", 10.0, declared_classes=declared),
        stats.class_summaries(),
        stats.waterfall("label"),
    )


@settings(max_examples=200, deadline=None)
@given(tenants)
def test_one_pass_fold_equals_one_fold_per_scope(scopes):
    declared = sorted({name for _, names in scopes for name in names})
    cluster = StreamingTrafficStats.of_records((), declared)
    for rows, names in scopes:
        rows = sorted(rows, key=lambda record: record.request_id)
        tenant = StreamingTrafficStats.of_records((), names)
        fold_records(rows, (tenant, cluster))
        assert _view(tenant, names) == _view(StreamingTrafficStats.of_records(rows, names), names)
    every = [
        record
        for rows, _ in scopes
        for record in sorted(rows, key=lambda record: record.request_id)
    ]
    assert _view(cluster, declared) == _view(
        StreamingTrafficStats.of_records(every, declared), declared
    )


RECORD_FIELDS = (
    "offered", "completed", "timed_out", "dropped", "shed", "cached", "coalesced",
    "rate_limited", "rejected", "latency", "queueing", "service", "classes",
)


def _record_fields(summary):
    return {name: getattr(summary, name) for name in RECORD_FIELDS}


def test_snapshot_rollups_equal_one_fold_per_scope():
    """An exact-mode run's tenant and cluster rows, against folding its records."""
    classes = (
        RequestClass("interactive", share=0.5, priority=0, deadline_s=0.01),
        RequestClass("batch", share=0.5, priority=1, deadline_s=5.0),
        RequestClass("never", share=1e-12, priority=2),
    )
    specs = [
        TenantSpec(
            name="classed",
            mode="roadrunner-user",
            arrivals=PoissonArrivals(rate_rps=150, duration_s=4, payload_mb=1.0, seed=11),
            classes=classes,
        ),
        TenantSpec(
            name="plain",
            mode="runc-http",
            arrivals=PoissonArrivals(rate_rps=80, duration_s=4, payload_mb=2.0, seed=12),
        ),
    ]
    engine = MultiTenantTrafficEngine(
        specs, config=TrafficConfig(nodes=1, max_queue=4, retain_records=True)
    )
    summary = engine.run()
    duration = summary.cluster.duration_s
    waterfall = []
    for spec in specs:
        rows = engine.runtime.records[spec.name]
        assert [record.request_id for record in rows] == sorted(
            record.request_id for record in rows
        )
        stats = StreamingTrafficStats.of_records(rows, spec.class_names)
        expected = stats.summary(
            spec.mode, spec.pattern_name, duration, declared_classes=spec.class_names
        )
        assert _record_fields(summary.tenants[spec.name]) == _record_fields(expected)
        waterfall.extend(stats.waterfall(spec.name))
    declared = sorted({name for spec in specs for name in spec.class_names})
    stats = StreamingTrafficStats.of_records(
        itertools.chain.from_iterable(engine.runtime.records[spec.name] for spec in specs), declared
    )
    expected = stats.summary("cluster", "multi-tenant", duration, declared_classes=declared)
    assert _record_fields(summary.cluster) == _record_fields(expected)
    assert engine.runtime.waterfall == waterfall + stats.waterfall("cluster")
    # The run exercised what the property is about.
    by_class = {row.name: row for row in summary.tenants["classed"].classes}
    assert sorted(by_class) == ["batch", "interactive", "never"]
    assert by_class["never"].offered == 0
    assert by_class["batch"].completed and by_class["interactive"].completed
    assert summary.cluster.completed < summary.cluster.offered

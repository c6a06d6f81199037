"""Fold-once equivalence: a value added at its known bucket is an observe.

The engine folds each finished request, from its scalars, into every
rollup it belongs to in one frame (:meth:`Rollups.fold`): each stage's
bucket index is computed once, each histogram updated in place, and a
scope's served-latency sketch is its stage-latency sketch until the first
cached or coalesced outcome forks it.  That must leave every scope — the
totals and each class — exactly as feeding it the raw values one
``LogHistogram.add`` at a time would, field for field and bucket for
bucket; the exact fold must append exactly those values; and a
sketch-mode federation must count every outcome exactly like the
record-retaining run.
"""

import math
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.sketch import LogHistogram, QuantileSketch, bucket_index
from repro.obs.streaming import Rollups, StreamingTrafficStats
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.engine import MultiTenantTrafficEngine, TrafficConfig
from repro.traffic.federation import ClusterSpec, FederatedTrafficEngine
from repro.traffic.slo import RequestOutcome, RequestRecord
from repro.traffic.tenants import TenantSpec

#: Zero, below the 1e-9 floor, ordinary latencies, and far past the last bucket.
values = st.lists(
    st.one_of(
        st.sampled_from([0.0, 1e-12, 5e-10, 1e-9, 0.003, 1e30]),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    ),
    max_size=60,
).map(lambda drawn: drawn + drawn[: len(drawn) // 2])  # repeats


def _state(sketch):
    return (sketch._counts, sketch.count, sketch.sum, sketch.min, sketch.max, sketch.summary())


def _fold(stream, record):
    """Fold one record into a sketch-mode accumulator, from its scalars, as the runtime does."""
    Rollups((stream,)).fold(
        record.outcome,
        record.arrival_s,
        record.dispatch_s,
        record.completion_s,
        record.cold_start_wait_s,
        record.request_class,
        record.deadline_s,
    )


@given(drawn=values)
@settings(max_examples=150, deadline=None)
def test_observe_at_a_precomputed_index_is_observe(drawn):
    # Each value is a completed request's latency and service time (it
    # arrives and is dispatched at 0), folded at its precomputed bucket.
    observed, stream = QuantileSketch(), StreamingTrafficStats()
    for value in drawn:
        observed.observe(value)
        Rollups((stream,)).fold(RequestOutcome.COMPLETED, 0.0, 0.0, value, 0.0, "c", None)
    assert _state(stream.stages.latency) == _state(observed)
    assert _state(stream.stages.service) == _state(observed)
    assert QuantileSketch().min == QuantileSketch().max == 0.0  # empty reads as before


def test_bucket_index_edges():
    histogram = LogHistogram()
    assert bucket_index(0.0) == bucket_index(1e-12) == 0
    assert bucket_index(1e30) == len(histogram._counts) - 1
    for value in (1e-9, 2e-9, 0.5, 7.0):  # add() unrolls the same index
        histogram.add(value)
        assert histogram._counts[bucket_index(value)] == 1


def _walk(histogram, q):
    """The one-quantile-per-walk read the batched one replaced."""
    rank = q * (histogram.count - 1) + 1.0
    seen = 0
    for index, bucket_count in enumerate(histogram._counts):
        seen += bucket_count
        if seen >= rank:
            estimate = histogram._min if index == 0 else (
                histogram.floor * histogram.growth ** (index - 0.5)
            )
            return min(max(estimate, histogram._min), histogram._max)
    return histogram._max


@given(drawn=values.filter(bool), qs=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_quantile_many_reads_each_quantile_from_the_same_bucket(drawn, qs):
    sketch = QuantileSketch()
    for value in drawn:
        sketch.observe(value)
    assert sketch.quantile_many(qs) == [_walk(sketch, q) for q in qs]
    summary = sketch.summary()
    assert (summary.p50_s, summary.p95_s, summary.p99_s) == tuple(
        _walk(sketch, q) for q in QuantileSketch.QUANTILES
    )


# -- one-frame fold against per-value adds, scope by scope ----------------------------

COUNTERS = (
    "offered", "completed", "timed_out", "dropped", "shed", "cached", "coalesced",
    "rate_limited", "rejected", "deadline_total", "deadline_met",
)
STAGES = ("latency", "queueing", "service", "cold_wait")


def _reference(records):
    """Per scope ("" for the totals, else the class): counters and the five
    distributions, each fed its raw values in fold order."""
    scopes = {}
    for record in records:
        for name in ("", record.request_class):
            entry = scopes.setdefault(name, _empty_scope())
            counters, values = entry["counters"], entry["values"]
            counters["offered"] += 1
            counters[record.outcome.value] += 1
            if record.deadline_s is not None:
                counters["deadline_total"] += 1
                counters["deadline_met"] += bool(record.deadline_met)
            if record.outcome is RequestOutcome.COMPLETED:
                values["latency"].append(record.latency_s)
                values["queueing"].append(record.queueing_delay_s)
                values["service"].append(record.service_s)
                values["cold_wait"].append(record.cold_start_wait_s)
            if record.served:
                values["served"].append(record.latency_s)
    return scopes


def _empty_scope():
    return {
        "counters": dict.fromkeys(COUNTERS, 0),
        "values": {key: [] for key in STAGES + ("served",)},
    }


def _histogram(values):
    histogram = LogHistogram()
    for value in values:
        histogram.add(value)
    return histogram


def _fields(histogram):
    # repr keeps floats bit-exact (and tells -0.0 from 0.0); the bucket
    # list compares as it is.
    return {
        name: repr(value) if isinstance(value, float) else value
        for name, value in vars(histogram).items()
    }


def _distributions(stats):
    return dict(
        {name: getattr(stats.stages, name) for name in STAGES}, served=stats.latency_served
    )


def _assert_scopes_match(stream, exact, records, declared):
    reference = _reference(records)
    got = {"": stream._totals}
    got.update(stream._classes)
    got_exact = {"": exact._totals}
    got_exact.update(exact._classes)
    assert sorted(got) == sorted(got_exact) == sorted(set(reference) | set(declared) | {""})
    for name, stats in got.items():
        entry = reference.get(name) or _empty_scope()
        assert {counter: getattr(stats, counter) for counter in COUNTERS} == entry["counters"]
        assert {
            counter: getattr(got_exact[name], counter) for counter in COUNTERS
        } == entry["counters"]
        sketches = _distributions(stats)
        samples = _distributions(got_exact[name])
        for key, values in entry["values"].items():
            assert _fields(sketches[key]) == _fields(_histogram(values)), (name, key)
            assert samples[key].values == array("d", values), (name, key)
        # Copy-on-write: the served sketch is the stage one until a cached
        # or coalesced outcome of this scope forks it.
        counters = entry["counters"]
        shared = not (counters["cached"] or counters["coalesced"])
        assert (stats.latency_served is stats.stages.latency) == shared
        assert (got_exact[name].latency_served is got_exact[name].stages.latency) == shared


CLASSES = ("gold", "silver", "bronze")


def _outcome_stream(seed, count):
    """``count`` valid records over every outcome, drawn from ``seed``, with
    zero, sub-floor and ordinary durations, and classes that appear
    mid-stream."""
    rng = random.Random(seed)
    outcomes = list(RequestOutcome)

    def duration():
        return rng.choice((0.0, 1e-12, 0.003, rng.uniform(0.0, 50.0)))

    records = []
    clock = 0.0
    for request_id in range(count):
        outcome = rng.choice(outcomes)
        clock += rng.uniform(0.0, 2.0)
        dispatch = completion = None
        cold_wait = 0.0
        if outcome is RequestOutcome.COMPLETED:
            dispatch = clock + duration()
            completion = dispatch + duration()
            cold_wait = duration()
        elif outcome in (RequestOutcome.CACHED, RequestOutcome.COALESCED):
            completion = clock + duration()
        records.append(
            RequestRecord(
                request_id=request_id,
                function="f",
                outcome=outcome,
                arrival_s=clock,
                dispatch_s=dispatch,
                completion_s=completion,
                cold_start_wait_s=cold_wait,
                # Later classes only become drawable later in the stream.
                request_class=rng.choice(CLASSES[: 1 + request_id // 12]),
                deadline_s=rng.choice((None, clock + duration())),
            )
        )
    return records


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=0, max_value=40),
    declared=st.lists(st.sampled_from(CLASSES), max_size=2, unique=True),
)
@settings(max_examples=200, deadline=None)
def test_one_frame_fold_equals_per_value_adds_in_every_scope(seed, count, declared):
    records = _outcome_stream(seed, count)
    stream = StreamingTrafficStats(declared_classes=declared)
    for record in records:
        _fold(stream, record)
    exact = StreamingTrafficStats.of_records(records, declared)
    _assert_scopes_match(stream, exact, records, declared)


def _sketch(values):
    sketch = QuantileSketch()
    for value in values:
        sketch.observe(value)
    return sketch


def test_one_frame_fold_feeds_every_rollup_of_the_tuple():
    # The first rollup is the finest; building the tuple makes it a member
    # of the second, which folds running sums only and merges at read.
    first, second = StreamingTrafficStats(), StreamingTrafficStats(declared_classes=["gold"])
    rollups = Rollups((first, second))
    assert second._members == [first]
    rollups.fold(RequestOutcome.COMPLETED, 1.0, 1.5, 2.5, 0.25, "gold", 3.0)
    rollups.fold(RequestOutcome.CACHED, 2.0, None, 2.125, 0.0, "gold", 2.0)
    rollups.fold(RequestOutcome.DROPPED, 3.0, None, None, 0.0, "gold", None)
    for stream in (first, second):
        summary = stream.summary("m", "p", 1.0)
        (gold,) = summary.classes
        assert (summary.offered, summary.completed, summary.cached, summary.dropped) == (
            3, 1, 1, 1
        )
        assert (gold.name, gold.offered, gold.deadline_total, gold.deadline_met) == (
            "gold", 3, 2, 1
        )
        assert summary.latency == gold.latency == _sketch([1.5, 0.125]).summary()
        assert summary.service == _sketch([1.0]).summary()
        assert _fields(stream.stages.latency) == _fields(_histogram([1.5]))
    assert math.isinf(StreamingTrafficStats().stages.latency._min)  # nothing folded yet


def test_scalar_fold_matches_record_fold_for_every_outcome():
    rng = random.Random(5)
    outcomes = list(RequestOutcome)
    records = []
    for request_id in range(400):
        outcome = rng.choice(outcomes)
        arrival = rng.uniform(0.0, 10.0)
        dispatch = completion = None
        if outcome is RequestOutcome.COMPLETED:
            dispatch = arrival + rng.expovariate(50.0)
            completion = dispatch + rng.expovariate(20.0)
        elif outcome in (RequestOutcome.CACHED, RequestOutcome.COALESCED):
            completion = arrival + rng.expovariate(200.0)
        records.append(
            RequestRecord(
                request_id=request_id,
                function="f",
                outcome=outcome,
                arrival_s=arrival,
                dispatch_s=dispatch,
                completion_s=completion,
                cold_start_wait_s=rng.choice([0.0, 0.0, 0.01]),
                request_class=rng.choice(["gold", "bronze"]),
                deadline_s=rng.choice([None, arrival + 0.05]),
            )
        )
    from_scalars = StreamingTrafficStats()
    for record in records:
        _fold(from_scalars, record)
    exact = StreamingTrafficStats.of_records(records)
    _assert_scopes_match(from_scalars, exact, records, ())
    summary = from_scalars.summary("m", "p", 10.0)
    assert (summary.offered, summary.completed) == (exact.offered, exact._totals.completed)
    assert [row.request_class for row in from_scalars.waterfall("t")] == [
        row.request_class for row in exact.waterfall("t")
    ] == ["bronze", "gold", "(all)"]


def test_a_new_class_does_not_fork_the_request_into_the_sole_declared_class():
    # While "quiet" is the only class it is the totals object; the first
    # "batch" request forks it off, and that copy must not count the request.
    stats = StreamingTrafficStats(declared_classes=["quiet"])
    for request_id, name in enumerate(("batch", "batch", "interactive")):
        record = RequestRecord(
            request_id=request_id,
            function="f",
            outcome=RequestOutcome.COMPLETED,
            arrival_s=0.0,
            dispatch_s=0.1,
            completion_s=0.2,
            request_class=name,
        )
        _fold(stats, record)
    rows = {row.name: row for row in stats.summary("m", "p", 1.0).classes}
    assert (rows["quiet"].offered, rows["quiet"].completed) == (0, 0)
    assert rows["quiet"].latency.count == 0
    assert (rows["batch"].offered, rows["interactive"].offered) == (2, 1)
    assert [row.request_class for row in stats.waterfall("t")] == [
        "batch", "interactive", "(all)"
    ]


# -- federation: sketch mode against exact mode ----------------------------------------


def _federation(retain):
    regions = ("us", "eu", "ap")
    tenants = [
        TenantSpec(
            name="%s-%s" % (region, mode.partition("-")[2]),
            mode=mode,
            arrivals=PoissonArrivals(
                rate_rps=70.0, duration_s=6.0, payload_mb=1.0, seed=7 * index + offset
            ),
        )
        for index, region in enumerate(regions)
        for offset, mode in enumerate(("roadrunner-user", "roadrunner-kernel"))
    ]
    clusters = [
        ClusterSpec(
            region=region,
            nodes=2,
            initial_replicas=1,
            tenants=tuple(t.name for t in tenants if t.name.startswith(region)),
        )
        for region in regions
    ]
    return FederatedTrafficEngine(
        tenants,
        clusters,
        config=TrafficConfig(retain_records=retain, max_queue=16),
        router="least-loaded",
        wan_rtt_s=0.02,
        fail_at={"us": 3.0},
    ).run()


OUTCOME_FIELDS = (
    "offered", "completed", "timed_out", "dropped", "shed",
    "cached", "coalesced", "rate_limited", "rejected",
)


def _outcomes(summary):
    return tuple(getattr(summary, name) for name in OUTCOME_FIELDS)


def _close(sketch, exact):
    assert sketch.latency.count == exact.latency.count
    assert sketch.latency.p50_s == pytest.approx(exact.latency.p50_s, rel=0.01)
    assert sketch.latency.p99_s == pytest.approx(exact.latency.p99_s, rel=0.01)


def test_sketch_federation_counts_every_outcome_like_exact_mode():
    sketch, exact = _federation(retain=False), _federation(retain=True)
    assert sketch.failed_regions == exact.failed_regions == ("us",)
    for region, exact_region in exact.regions.items():
        sketch_region = sketch.regions[region]
        assert _outcomes(sketch_region.cluster) == _outcomes(exact_region.cluster)
        for name, tenant in exact_region.tenants.items():
            assert _outcomes(sketch_region.tenants[name]) == _outcomes(tenant)
    for name, tenant in exact.tenants.items():
        assert _outcomes(sketch.tenants[name]) == _outcomes(tenant)
    assert _outcomes(sketch.cluster) == _outcomes(exact.cluster)
    assert sketch.cluster.completed < sketch.cluster.offered  # outcomes are mixed
    # Percentiles: the federation-wide rollup, where the tail has samples
    # enough for interpolated order statistics to be meaningful.
    _close(sketch.cluster, exact.cluster)


def test_single_region_sketch_federation_is_the_plain_sketch_engine():
    def tenants():
        return [
            TenantSpec(
                name=name,
                mode="roadrunner-user",
                arrivals=PoissonArrivals(rate_rps=rps, duration_s=5.0, payload_mb=1.0, seed=seed),
            )
            for name, rps, seed in (("steady", 30.0, 3), ("spiky", 50.0, 5))
        ]

    config = TrafficConfig(nodes=4, retain_records=False)
    expected = MultiTenantTrafficEngine(tenants(), config=config).run()
    summary = FederatedTrafficEngine(
        tenants(), [ClusterSpec(region="traffic", nodes=4)], config=config
    ).run()
    assert repr(summary.region("traffic")) == repr(expected)
    assert repr(summary.tenants) == repr(expected.tenants)

"""Fold-once equivalence: a value added at its known bucket is an observe.

The engine reduces each finished request once (:class:`Observation`, with
every stage's bucket index) and folds it into every rollup it belongs to.
That must leave each sketch exactly as observing the raw values would, and
a sketch-mode federation must count every outcome exactly like the
record-retaining run.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.sketch import LogHistogram, QuantileSketch, bucket_index
from repro.obs.streaming import Observation, StreamingTrafficStats
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


@given(drawn=values)
@settings(max_examples=150, deadline=None)
def test_observe_at_a_precomputed_index_is_observe(drawn):
    observed, folded = QuantileSketch(), QuantileSketch()
    for value in drawn:
        observed.observe(value)
        folded.observe_at(float(value), bucket_index(float(value)))
    assert _state(folded) == _state(observed)


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
    from_records, from_scalars = StreamingTrafficStats(), StreamingTrafficStats()
    for record in records:
        from_records.fold(Observation.of_record(record))
        from_scalars.fold(
            Observation(
                record.outcome,
                record.arrival_s,
                record.dispatch_s,
                record.completion_s,
                record.cold_start_wait_s,
                record.request_class,
                record.deadline_s,
            )
        )
    assert repr(from_scalars.summary("m", "p", 10.0)) == repr(
        from_records.summary("m", "p", 10.0)
    )
    assert from_scalars.waterfall("t") == from_records.waterfall("t")


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
        stats.fold(Observation.of_record(record))
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

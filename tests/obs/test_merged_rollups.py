"""Fold once, read merged: a coarse rollup equals one that folded every request.

Sketch mode folds a finished request in full only into its finest rollup,
its tenant's in its region.  The coarser rollups :func:`attach_streams`
wires up — the region's cluster, the federation-wide tenant and cluster —
keep only running sums per request and merge their members in when read.
Over 1-3 regions and 1-3 tenants, with declared classes that never see a
request, classes that appear mid-stream and cached/coalesced outcomes that
fork served sketches, every coarse scope read after the merge must equal a
reference rollup that folded each of its requests in full, in the same
order: every counter, every distribution field bucket for bucket (``_sum``,
min and max included), the served-sketch sharing, the sole-class aliasing
and the class order — also when it is read mid-stream and then folds more.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.streaming import Rollups, StreamingTrafficStats
from repro.traffic.cluster_runtime import attach_streams
from repro.traffic.slo import RequestOutcome, SloError

COUNTERS = (
    "offered", "completed", "timed_out", "dropped", "shed", "cached", "coalesced",
    "rate_limited", "rejected", "deadline_total", "deadline_met",
)
STAGES = ("latency", "queueing", "service", "cold_wait")
CLASSES = ("gold", "silver", "bronze")
OUTCOMES = list(RequestOutcome)


def _fields(histogram):
    # repr keeps floats bit-exact; the bucket list compares as it is.
    return {
        name: repr(value) if isinstance(value, float) else value
        for name, value in vars(histogram).items()
    }


def _scope(stats):
    stages = stats.stages
    return {
        "counters": {name: getattr(stats, name) for name in COUNTERS},
        "stages": {name: _fields(getattr(stages, name)) for name in STAGES},
        "served": _fields(stats.latency_served),
        "shared": stats.latency_served is stages.latency,
    }


def _state(stream, declared):
    """Everything a rollup holds, read through its summary (which merges)."""
    summary = repr(stream.summary("m", "p", 1.0, declared_classes=declared))
    totals = stream._totals
    return {
        "summary": summary,
        "waterfall": repr(stream.waterfall("w")),
        "totals": _scope(totals),
        "class order": list(stream._classes),
        "aliased": [name for name, stats in stream._classes.items() if stats is totals],
        "classes": {name: _scope(stats) for name, stats in stream._classes.items()},
    }


def _requests(rng, regions, tenants, count):
    """``count`` finished requests as fold scalars, each with its region and tenant."""

    def duration():
        return rng.choice((0.0, 1e-12, 0.003, rng.uniform(0.0, 50.0)))

    clock = 0.0
    requests = []
    for index in range(count):
        clock += rng.uniform(0.0, 2.0)
        tenant = rng.randrange(len(tenants))
        outcome = rng.choice(OUTCOMES)
        dispatch = completion = None
        cold_wait = 0.0
        if outcome is RequestOutcome.COMPLETED:
            dispatch = clock + duration()
            completion = dispatch + duration()
            cold_wait = duration()
        elif outcome in (RequestOutcome.CACHED, RequestOutcome.COALESCED):
            completion = clock + duration()
        drawn = tenants[tenant].drawn
        # A tenant's later classes only become drawable later in the stream.
        klass = rng.choice(drawn[: 1 + index * len(drawn) // max(count, 1)])
        deadline = rng.choice((None, clock + duration()))
        requests.append(
            (rng.randrange(regions), tenant,
             (outcome, clock, dispatch, completion, cold_wait, klass, deadline))
        )
    return requests


def _tenants(rng, count):
    tenants = []
    for index in range(count):
        declared = tuple(sorted(rng.sample(CLASSES, rng.randrange(len(CLASSES) + 1))))
        if declared:
            # Draw from some declared classes only: the rest see no request.
            drawn = declared[: rng.randrange(1, len(declared) + 1)]
            if len(declared) == 1 and rng.random() < 0.5:
                drawn = declared + ("extra",)  # a class nobody declared
        else:
            drawn = ("standard",)
        tenants.append(
            SimpleNamespace(
                name="t%d" % index, spec=SimpleNamespace(class_names=declared), drawn=drawn
            )
        )
    return tenants


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    regions=st.integers(min_value=1, max_value=3),
    tenant_count=st.integers(min_value=1, max_value=3),
    count=st.integers(min_value=0, max_value=60),
    federated=st.booleans(),
    read_at=st.integers(min_value=0, max_value=60),
)
@settings(max_examples=200, deadline=None)
def test_every_coarse_scope_reads_as_a_full_fold(
    seed, regions, tenant_count, count, federated, read_at
):
    rng = random.Random(seed)
    tenants = _tenants(rng, tenant_count)
    declared_all = sorted({name for tenant in tenants for name in tenant.spec.class_names})
    outer_tenants = outer_cluster = None
    if federated:
        outer_tenants = {
            tenant.name: StreamingTrafficStats(declared_classes=tenant.spec.class_names)
            for tenant in tenants
        }
        outer_cluster = StreamingTrafficStats()
    # Each region's tenant states, wired as a run wires them.
    states = []
    region_clusters = []
    for _ in range(regions):
        region_states = [
            SimpleNamespace(name=tenant.name, spec=tenant.spec, streams=())
            for tenant in tenants
        ]
        region_clusters.append(attach_streams(region_states, outer_tenants, outer_cluster))
        states.append(region_states)
    # The coarse scopes, each with a reference built as it was and its requests.
    coarse = []
    for region, cluster in enumerate(region_clusters):
        if cluster is not states[region][0].streams[0]:
            coarse.append((cluster, StreamingTrafficStats(), declared_all,
                           lambda r, t, region=region: r == region))
    if federated:
        for index, tenant in enumerate(tenants):
            coarse.append((outer_tenants[tenant.name],
                           StreamingTrafficStats(declared_classes=tenant.spec.class_names),
                           tenant.spec.class_names, lambda r, t, index=index: t == index))
        coarse.append((outer_cluster, StreamingTrafficStats(), declared_all,
                       lambda r, t: True))
    for region_states in states:
        for state in region_states:
            assert state.streams[1:] == state.streams.coarse
            for stream in state.streams.coarse:
                assert state.streams[0] in stream._members

    for position, (region, tenant, scalars) in enumerate(_requests(rng, regions, tenants, count)):
        if position == read_at:  # a read mid-stream merges; later folds must still count
            for stream, reference, declared, _ in coarse:
                stream.summary("m", "p", 1.0, declared_classes=declared)
                reference.summary("m", "p", 1.0, declared_classes=declared)
        states[region][tenant].streams.fold(*scalars)
        for stream, reference, _, member in coarse:
            if member(region, tenant):
                Rollups((reference,)).fold(*scalars)

    for stream, reference, declared, _ in coarse:
        assert _state(stream, declared) == _state(reference, declared)


def test_a_rollup_with_members_is_never_a_finest():
    finest, coarse = StreamingTrafficStats(), StreamingTrafficStats()
    Rollups((finest, coarse))
    with pytest.raises(SloError):
        Rollups((coarse,))

"""Regression pins for the hot-path rework's order-preserving helpers.

Two pieces of the throughput work changed *how* the engine computes
without being allowed to change *what* it computes:

* ``_merge_timelines`` replaced a global sort with an N-way
  ``heapq.merge`` over the per-tenant step functions;
* ``_ordered_requests`` replaced the unconditional per-engine sort with a
  sortedness check, so an ordered stream passes through untouched.

Each test pins the new implementation against the behaviour (or a direct
reimplementation) of the code it replaced.
"""

import heapq
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic.arrivals import MB, PoissonArrivals, Request, _ordered_requests
from repro.traffic.autoscaler import Autoscaler, FixedReplicasPolicy
from repro.traffic.cluster_runtime import _merge_timelines
from repro.traffic.engine import TrafficConfig, TrafficEngine


# -- _merge_timelines vs the global sort it replaced -------------------------------


def _merge_timelines_reference(timelines):
    """The pre-rework implementation: one global stable sort over all events."""
    events = sorted(
        (time_s, index, count)
        for index, timeline in enumerate(timelines)
        for time_s, count in timeline
    )
    current = [0] * len(timelines)
    merged = []
    for time_s, index, count in events:
        current[index] = count
        total = sum(current)
        if merged and merged[-1][0] == time_s:
            merged[-1] = (time_s, total)
        else:
            merged.append((time_s, total))
    return merged


timeline_strategy = st.lists(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.integers(min_value=0, max_value=32),
        ),
        max_size=30,
    ).map(lambda timeline: sorted(timeline, key=lambda entry: entry[0])),
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(timelines=timeline_strategy)
def test_merge_timelines_equals_global_sort_reference(timelines):
    # Engine timelines arrive per-tenant in non-decreasing event order —
    # exactly what the strategy produces and what heapq.merge requires.
    assert _merge_timelines(timelines) == _merge_timelines_reference(timelines)


def test_merge_timelines_breaks_cross_tenant_ties_by_tenant_index():
    timelines = [[(0.0, 1), (5.0, 3)], [(0.0, 2), (5.0, 4)]]
    # At each shared instant the later (higher-index) tenant lands last,
    # and same-time events collapse to one row holding the final total.
    assert _merge_timelines(timelines) == [(0.0, 3), (5.0, 7)]


# -- _ordered_requests: sortedness check instead of an unconditional sort ----------


def _request(request_id, arrival_s):
    return Request(
        request_id=request_id,
        arrival_s=arrival_s,
        function="app",
        payload_bytes=MB,
    )


def test_ordered_requests_passes_sorted_tuples_through_untouched():
    stream = tuple(_request(i, float(i)) for i in range(50))
    assert _ordered_requests(stream) is stream  # no copy, no sort


def test_ordered_requests_sorts_by_arrival_then_id():
    stream = [_request(i, float(i)) for i in range(50)]
    shuffled = list(stream)
    random.Random(3).shuffle(shuffled)
    ordered = _ordered_requests(shuffled)
    assert list(ordered) == stream
    # Equal arrival instants fall back to request id.
    ties = [_request(2, 1.0), _request(0, 1.0), _request(1, 0.5)]
    assert [r.request_id for r in _ordered_requests(ties)] == [1, 0, 2]


def test_engine_results_are_order_insensitive():
    # schedule_arrivals canonicalizes every tenant's stream through
    # _ordered_requests, so a shuffled stream must reproduce the sorted
    # stream's summary exactly.
    requests = PoissonArrivals(
        rate_rps=30.0, duration_s=2.0, payload_mb=1.0, seed=11
    ).generate()
    shuffled = list(requests)
    random.Random(7).shuffle(shuffled)

    def _engine():
        return TrafficEngine(
            "roadrunner-user",
            autoscaler=Autoscaler(
                FixedReplicasPolicy(2), min_replicas=2, max_replicas=2
            ),
            config=TrafficConfig(nodes=2, initial_replicas=2),
        )

    sorted_summary = _engine().run(requests, pattern="poisson")
    shuffled_summary = _engine().run(shuffled, pattern="poisson")
    assert shuffled_summary == sorted_summary

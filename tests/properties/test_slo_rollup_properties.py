"""Property tests: the SLO rollups equal the per-metric scans.

``summarize``, ``summarize_classes`` and ``StreamingTrafficStats.waterfall`` fold
the records once into the exact backend of the streaming accumulator, and
``LatencySummary.from_samples`` sorts once.  Their contract is that every
field is *exactly* (``==``, not approximately) what one list pass per field
gives: the counts, the samples in record order, the mean summed in sample
order (not sorted order), and the percentiles of separate sorts.  The
reference formulas below are kept verbatim from the multi-pass
implementation and from the record-walking waterfall.  Sketch mode folds
the same requests into sketches, so its counts must equal the reference
too.
"""

from typing import Dict, List, Sequence, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics.stats import LatencySummary, mean, percentile
from repro.obs.spans import WaterfallRow
from repro.obs.streaming import Rollups, StreamingTrafficStats
from repro.traffic.slo import (
    RequestOutcome,
    RequestRecord,
    summarize,
    summarize_classes,
)


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


# -- the multi-pass reference ---------------------------------------------------------


def _ref_percentile(values, q):
    ordered = sorted(values)
    rank = (len(ordered) - 1) * (q / 100.0)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def _ref_from_samples(values):
    return LatencySummary(
        count=len(values),
        mean_s=sum(values) / len(values),
        p50_s=_ref_percentile(values, 50.0),
        p95_s=_ref_percentile(values, 95.0),
        p99_s=_ref_percentile(values, 99.0),
        max_s=max(values),
    )


def _ref_latency(values):
    return _ref_from_samples(values) if values else LatencySummary.empty()


def _ref_outcome_counts(records):
    return dict(
        completed=sum(1 for r in records if r.outcome is RequestOutcome.COMPLETED),
        timed_out=sum(1 for r in records if r.outcome is RequestOutcome.TIMED_OUT),
        dropped=sum(1 for r in records if r.outcome is RequestOutcome.DROPPED),
        shed=sum(1 for r in records if r.outcome is RequestOutcome.SHED),
        cached=sum(1 for r in records if r.outcome is RequestOutcome.CACHED),
        coalesced=sum(1 for r in records if r.outcome is RequestOutcome.COALESCED),
        rate_limited=sum(1 for r in records if r.outcome is RequestOutcome.RATE_LIMITED),
        rejected=sum(1 for r in records if r.outcome is RequestOutcome.REJECTED),
    )


def _ref_classes(records, declared):
    names = sorted(set(declared) | {record.request_class for record in records})
    rows = []
    for name in names:
        mine = [record for record in records if record.request_class == name]
        served = [r for r in mine if r.served]
        with_deadline = [r for r in mine if r.deadline_s is not None]
        rows.append(
            dict(
                name=name,
                offered=len(mine),
                deadline_total=len(with_deadline),
                deadline_met=sum(1 for r in with_deadline if r.deadline_met),
                latency=_ref_latency([r.latency_s for r in served]),
                **_ref_outcome_counts(mine),
            )
        )
    return rows


def _ref_summary_fields(records, declared):
    completed = [r for r in records if r.outcome is RequestOutcome.COMPLETED]
    served = [r for r in records if r.served]
    return dict(
        offered=len(records),
        latency=_ref_latency([r.latency_s for r in served]),
        queueing=_ref_latency([r.queueing_delay_s for r in completed]),
        service=_ref_latency([r.service_s for r in completed]),
        **_ref_outcome_counts(records),
    )


def _fields(obj, names):
    return {name: getattr(obj, name) for name in names}


def _ref_waterfall_from_records(
    label: str, records: Sequence[RequestRecord]
) -> List[WaterfallRow]:
    completed = [r for r in records if r.outcome is RequestOutcome.COMPLETED]
    by_class: Dict[str, List[RequestRecord]] = {}
    for record in completed:
        by_class.setdefault(record.request_class, []).append(record)
    rows = [
        _ref_row_from_records(label, name, mine) for name, mine in sorted(by_class.items())
    ]
    if len(rows) > 1:
        rows.append(_ref_row_from_records(label, "(all)", completed))
    return rows


def _ref_row_from_records(
    label: str, request_class: str, records: Sequence[RequestRecord]
) -> WaterfallRow:
    # One sample list at a time: the cluster-wide row of a long run would
    # otherwise hold all four at once, at the run's memory peak.
    queue_mean, queue_p95 = _ref_mean_p95(
        [max(0.0, r.queueing_delay_s - r.cold_start_wait_s) for r in records]
    )
    cold_mean, cold_p95 = _ref_mean_p95([r.cold_start_wait_s for r in records])
    service_mean, service_p95 = _ref_mean_p95([r.service_s for r in records])
    total_mean, total_p95 = _ref_mean_p95([r.latency_s for r in records])
    return WaterfallRow(
        label=label,
        request_class=request_class,
        completed=len(records),
        queue_mean_s=queue_mean,
        queue_p95_s=queue_p95,
        cold_mean_s=cold_mean,
        cold_p95_s=cold_p95,
        service_mean_s=service_mean,
        service_p95_s=service_p95,
        total_mean_s=total_mean,
        total_p95_s=total_p95,
    )


def _ref_mean_p95(values: Sequence[float]) -> Tuple[float, float]:
    return mean(values), percentile(values, 95.0)


# -- strategies -----------------------------------------------------------------------

# Durations whose sums round differently in different orders, plus zeros.
durations = st.one_of(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 1e-9, 0.1, 0.2, 0.3, 1.0 / 3.0, 7.7, 1e6]),
)

CLASS_NAMES = ("batch", "interactive", "standard")


@st.composite
def records(draw):
    """One record of any outcome, with or without a (met or missed) deadline."""
    outcome = draw(st.sampled_from(list(RequestOutcome)))
    arrival = draw(durations)
    dispatch = completion = None
    if outcome is RequestOutcome.COMPLETED:
        dispatch = arrival + draw(durations)
        completion = dispatch + draw(durations)
    elif outcome in (RequestOutcome.CACHED, RequestOutcome.COALESCED):
        completion = arrival + draw(durations)
    deadline = draw(st.one_of(st.none(), durations.map(lambda d: arrival + d)))
    return RequestRecord(
        request_id=draw(st.integers(min_value=0, max_value=10_000)),
        function="f",
        outcome=outcome,
        arrival_s=arrival,
        dispatch_s=dispatch,
        completion_s=completion,
        request_class=draw(st.sampled_from(CLASS_NAMES)),
        deadline_s=deadline,
    )


record_lists = st.lists(records(), max_size=40)

#: Served latencies whose sum in record order (0.6) differs in the last bit
#: from their sum in sorted order (0.6000000000000001).
UNSORTED_SUM = [
    RequestRecord(
        request_id=3 - i,
        function="f",
        outcome=RequestOutcome.CACHED,
        arrival_s=0.0,
        completion_s=latency,
        request_class="batch",
    )
    for i, latency in enumerate((0.3, 0.2, 0.1))
]
declared_lists = st.lists(st.sampled_from(CLASS_NAMES + ("quiet", "idle")), max_size=4)


@st.composite
def cold_records(draw):
    """A record whose cold-start wait may exceed its queueing delay."""
    return draw(records())._replace(cold_start_wait_s=draw(durations))


def _completed(request_id, request_class, queueing, cold_wait, service=0.25):
    return RequestRecord(
        request_id=request_id,
        function="f",
        outcome=RequestOutcome.COMPLETED,
        arrival_s=1.0,
        dispatch_s=1.0 + queueing,
        completion_s=1.0 + queueing + service,
        cold_start_wait_s=cold_wait,
        request_class=request_class,
    )


#: One class only, half the cold waits longer than the queueing delay.
ONE_CLASS = [_completed(i, "batch", 0.1 * i, 0.3) for i in range(6)]
#: Two classes: an ``(all)`` row closes the group.
TWO_CLASSES = ONE_CLASS + [_completed(9, "interactive", 0.7, 0.05, service=1.0 / 3.0)]
#: A declared class forked off the totals when a second class first appears.
FORK_LEAK = [_completed(i, name, 0.1, 0.0) for i, name in enumerate(
    ("batch", "batch", "interactive"))]


# -- properties -----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.lists(durations, min_size=1, max_size=40))
@example([0.3, 0.2, 0.1])
def test_from_samples_equals_three_sorts_and_an_ordered_sum(values):
    assert LatencySummary.from_samples(values) == _ref_from_samples(values)


@settings(max_examples=150, deadline=None)
@given(record_lists, declared_lists)
@example(UNSORTED_SUM, ["quiet"])
def test_summarize_classes_equals_per_class_scans(rows, declared):
    got = summarize_classes(rows, declared=declared)
    expected = _ref_classes(rows, declared)
    assert [_fields(row, ref) for row, ref in zip(got, expected)] == expected
    assert len(got) == len(expected)


@settings(max_examples=150, deadline=None)
@given(record_lists, declared_lists)
@example(UNSORTED_SUM, [])
def test_summarize_equals_per_field_scans(rows, declared):
    summary = summarize("m", "p", 10.0, rows, declared_classes=declared)
    expected = _ref_summary_fields(rows, declared)
    assert _fields(summary, expected) == expected
    assert summary.classes == summarize_classes(rows, declared=declared)


def test_empty_input_gives_zero_rows_for_declared_classes_only():
    summary = summarize("m", "p", 1.0, [], declared_classes=("quiet", "batch"))
    assert summary.offered == 0
    assert summary.latency == summary.queueing == summary.service == LatencySummary.empty()
    assert [row.name for row in summary.classes] == ["batch", "quiet"]
    assert all(row.offered == 0 and row.latency == LatencySummary.empty()
               for row in summary.classes)
    assert summarize_classes([]) == ()


@settings(max_examples=150, deadline=None)
@given(st.lists(cold_records(), max_size=40))
@example([])
@example(UNSORTED_SUM)  # no completions: no rows
@example(ONE_CLASS)
@example(TWO_CLASSES)
def test_waterfall_equals_the_record_walk(rows):
    assert StreamingTrafficStats.of_records(rows).waterfall("t") == _ref_waterfall_from_records(
        "t", rows
    )


COUNT_FIELDS = (
    "offered", "completed", "timed_out", "dropped", "shed", "cached",
    "coalesced", "rate_limited", "rejected", "deadline_total", "deadline_met",
)


@settings(max_examples=150, deadline=None)
@given(record_lists, declared_lists)
@example(FORK_LEAK, ["quiet"])
def test_sketch_class_counts_equal_per_class_scans(rows, declared):
    stats = StreamingTrafficStats(declared_classes=declared)
    for record in rows:
        _fold(stats, record)
    got = stats.summary("m", "p", 10.0, declared_classes=declared).classes
    expected = _ref_classes(rows, declared)
    assert [row.name for row in got] == [ref["name"] for ref in expected]
    assert [_fields(row, COUNT_FIELDS) for row in got] == [
        {name: ref[name] for name in COUNT_FIELDS} for ref in expected
    ]

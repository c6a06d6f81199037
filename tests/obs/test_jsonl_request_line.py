"""The JSONL request line: a filled template equals the sorted-key JSON of the event.

``Telemetry.on_request`` writes each request's line from a template with its
tenant, outcome and region encoded in, instead of encoding a fresh dict.
Every line must be byte for byte what ``json.dumps(event, sort_keys=True)``
gives for the event dict the telemetry used to build (kept verbatim below
as the reference), for every optional field (latency, stages, node,
region) and for any strings and floats.
"""

import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.exporters import JsonlEventWriter
from repro.obs.spans import RequestTrace
from repro.obs.telemetry import Telemetry
from repro.traffic.slo import SERVED_OUTCOMES, RequestOutcome, RequestRecord


def _reference_event(tenant, record, node, region):
    """The event dict as the telemetry built it before the template."""
    trace = RequestTrace.from_record(tenant, record, node=node)
    outcome = record.outcome
    event = {
        "event": "request",
        "tenant": tenant,
        "id": record.request_id,
        "class": record.request_class,
        "outcome": outcome.value,
        "arrival_s": round(record.arrival_s, 9),
    }
    if outcome in SERVED_OUTCOMES:
        event["latency_s"] = round(record.latency_s, 9)
    if outcome is RequestOutcome.COMPLETED:
        event["queue_s"] = round(trace.queue_s, 9)
        event["cold_start_s"] = round(trace.cold_start_s, 9)
        event["service_s"] = round(trace.service_s, 9)
        event["replica"] = record.replica
        if node:
            event["node"] = node
    if region:
        event["region"] = region
    return event


# Quotes, backslashes, the template's own "%", control characters, the
# line and paragraph separators, non-ASCII and astral characters.
_TRICKY = [
    '"', "\\", "%", "s", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\xe9", "\u6f22", "\U0001f600",
]
_CHARACTERS = st.one_of(st.characters(), st.sampled_from(_TRICKY))
names = st.text(_CHARACTERS, max_size=6)
nonempty_names = st.text(_CHARACTERS, min_size=1, max_size=6)

# Floats across magnitudes, integral floats, and values that round at the
# ninth decimal.
instants = st.one_of(
    st.floats(min_value=0.0, max_value=1e15, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=10**12).map(float),
    st.sampled_from([0.0, 1e-12, 5e-10, 1.0000000005, 0.1 + 0.2, 1e15, 123456789.123456789]),
)
gaps = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-12, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=1000).map(float),
)


@st.composite
def finished(draw):
    """(record, node) of one finished request over every outcome."""
    outcome = draw(st.sampled_from(list(RequestOutcome)))
    dispatch = completion = None
    cold_wait = 0.0
    replica = ""
    node = ""
    if outcome in SERVED_OUTCOMES:
        arrival = draw(instants)
        completion = arrival + draw(gaps)
        if outcome is RequestOutcome.COMPLETED:
            dispatch = completion
            completion = dispatch + draw(gaps)
            cold_wait = draw(st.one_of(st.just(0.0), gaps))
            replica = draw(names)
            node = draw(st.one_of(st.just(""), nonempty_names))
    else:
        # A request nothing served has only its arrival, which the JSON
        # encoder spells NaN/Infinity when it is not finite.
        arrival = draw(st.one_of(instants, st.sampled_from([math.inf, math.nan])))
    record = RequestRecord(
        request_id=draw(st.integers(min_value=0, max_value=2**63)),
        function="f",
        outcome=outcome,
        arrival_s=arrival,
        dispatch_s=dispatch,
        completion_s=completion,
        replica=replica,
        cold_start_wait_s=cold_wait,
        request_class=draw(names),
    )
    return record, node


def _lines(tenant, region, requests):
    handle = io.StringIO()
    telemetry = Telemetry(events=JsonlEventWriter(handle), region=region)
    for record, node in requests:
        telemetry.on_request(tenant, record, node)
    return handle.getvalue().splitlines()


@settings(max_examples=400, deadline=None)
@given(
    tenant=names,
    region=st.one_of(st.just(""), nonempty_names),
    requests=st.lists(finished(), min_size=1, max_size=4),
)
@example(
    tenant='t"%\\',
    region="eu-%s",
    requests=[
        (RequestRecord(7, "f", RequestOutcome.COMPLETED, 1.0, 2.0, 3.0, "r%d", 0.5, "c\n"), "n"),
        (RequestRecord(8, "f", RequestOutcome.COMPLETED, 1.0, 2.0, 3.0, "r", 0.0, "c"), ""),
        (RequestRecord(9, "f", RequestOutcome.CACHED, 4.0, None, 4.0), ""),
        (RequestRecord(10, "f", RequestOutcome.DROPPED, math.nan), ""),
    ],
)
def test_request_line_equals_the_sorted_json_of_the_event(tenant, region, requests):
    lines = _lines(tenant, region, requests)
    assert lines == [
        json.dumps(_reference_event(tenant, record, node, region), sort_keys=True)
        for record, node in requests
    ]


def test_every_optional_field_combination_is_exercised():
    """Latency, stages and node each present and absent, with and without a region."""
    requests = [
        (RequestRecord(1, "f", RequestOutcome.TIMED_OUT, 1.0), ""),
        (RequestRecord(2, "f", RequestOutcome.COALESCED, 1.0, None, 2.0), ""),
        (RequestRecord(3, "f", RequestOutcome.COMPLETED, 1.0, 1.5, 2.0, "r"), ""),
        (RequestRecord(4, "f", RequestOutcome.COMPLETED, 1.0, 1.5, 2.0, "r"), "node-0"),
    ]
    for region in ("", "us-east"):
        keys = [sorted(json.loads(line)) for line in _lines("t", region, requests)]
        base = ["arrival_s", "class", "event", "id", "outcome", "tenant"]
        stages = ["cold_start_s", "latency_s", "queue_s", "replica", "service_s"]
        extra = ["region"] if region else []
        assert keys == [
            sorted(base + extra),
            sorted(base + extra + ["latency_s"]),
            sorted(base + extra + stages),
            sorted(base + extra + stages + ["node"]),
        ]

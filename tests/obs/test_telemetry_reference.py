"""Byte identity: ``Telemetry.on_request``'s cached children vs per-call lookups.

``Telemetry`` resolves a request's metric children once per (tenant,
outcome) and writes events through one shared JSON encoder.  The reference
below is the per-request form it replaced: ``family.labels(**kw)`` for
every child of every request and ``json.dumps(..., sort_keys=True)`` for
every event.  Both are fed the same stream, in which tenants first appear
in a different order for each outcome, every outcome occurs, and tenant,
node and replica names carry quotes, backslashes and non-ASCII characters.
The Prometheus text, the JSONL and the retained traces must be identical.
"""

import io
import json
import random

import pytest

from repro.obs import JsonlEventWriter, Telemetry, TraceLog
from repro.obs.exporters import render_prometheus
from repro.obs.spans import RequestTrace
from repro.traffic.autoscaler import LoadSample
from repro.traffic.slo import RequestOutcome, RequestRecord

TENANTS = ('say "hi"', "back\\slash", "ünïcødé-租户", "plain")
NODES = ("", 'node"0', "nøde\\1")
REPLICAS = ('r"1', "r\\2", "réplica-3")
BACKEND_FREE = (RequestOutcome.CACHED, RequestOutcome.COALESCED)


def _stream(count=240, seed=5):
    """(tenant, record, node) triples: every outcome, tenants interleaved.

    Tenants are drawn at random, so each metric family meets them in a
    different first-use order (a tenant's first request is often one that
    creates no latency or stage child).
    """
    rng = random.Random(seed)
    outcomes = list(RequestOutcome)
    items = []
    for request_id in range(count):
        tenant = rng.choice(TENANTS)
        outcome = outcomes[request_id % len(outcomes)] if request_id < 32 else rng.choice(outcomes)
        arrival = rng.uniform(0.0, 30.0)
        dispatch = completion = None
        cold = 0.0
        if outcome is RequestOutcome.COMPLETED:
            dispatch = arrival + rng.choice([0.0, rng.uniform(0.0, 2.0)])
            cold = rng.choice([0.0, (dispatch - arrival) / 3.0])
            completion = dispatch + rng.uniform(1e-6, 0.5)
        elif outcome in BACKEND_FREE:
            completion = arrival + rng.choice([0.0, rng.uniform(0.0, 0.1)])
        record = RequestRecord(
            request_id=request_id,
            function="fn",
            outcome=outcome,
            arrival_s=arrival,
            dispatch_s=dispatch,
            completion_s=completion,
            replica=rng.choice(REPLICAS) if dispatch is not None else "",
            cold_start_wait_s=cold,
            request_class=rng.choice(("standard", 'clä"ss')),
        )
        items.append((tenant, record, rng.choice(NODES)))
    return items


def _reference_on_request(telemetry, out, tenant, record, node=""):
    """The per-request lookups and encoder the cached path replaced."""
    registry = telemetry.registry
    region = {"region": telemetry.region} if telemetry.region else {}
    registry.get("repro_requests_total").labels(
        tenant=tenant, outcome=record.outcome.value, **region
    ).inc()
    trace = RequestTrace.from_record(tenant, record, node=node)
    if record.served:
        registry.get("repro_request_latency_seconds").labels(
            tenant=tenant, **region
        ).observe(record.latency_s)
    if record.outcome is RequestOutcome.COMPLETED:
        for stage, _, duration in trace.stages():
            registry.get("repro_request_stage_seconds").labels(
                tenant=tenant, stage=stage, **region
            ).observe(duration)
    telemetry.trace_log.record(trace)
    event = {
        "event": "request",
        "tenant": tenant,
        "id": record.request_id,
        "class": record.request_class,
        "outcome": record.outcome.value,
        "arrival_s": round(record.arrival_s, 9),
    }
    if record.served:
        event["latency_s"] = round(record.latency_s, 9)
    if record.outcome is RequestOutcome.COMPLETED:
        event["queue_s"] = round(trace.queue_s, 9)
        event["cold_start_s"] = round(trace.cold_start_s, 9)
        event["service_s"] = round(trace.service_s, 9)
        event["replica"] = record.replica
        if node:
            event["node"] = node
    if telemetry.region:
        event["region"] = telemetry.region
    out.write(json.dumps(event, sort_keys=True))
    out.write("\n")


def _tick(telemetry, index, tenant):
    sample = LoadSample(
        time_s=float(index),
        in_flight=0,
        queued=index % 5,
        replicas=index % 3,
        arrival_rate_rps=index / 7.0,
    )
    telemetry.on_tick(tenant, sample)


@pytest.mark.parametrize("region", ["", "eu"])
def test_cached_children_match_per_request_lookups(region):
    stream = _stream()
    cached_out, reference_out = io.StringIO(), io.StringIO()
    cached = Telemetry(trace_log=TraceLog(), events=JsonlEventWriter(cached_out), region=region)
    reference = Telemetry(trace_log=TraceLog(), region=region)
    for index, (tenant, record, node) in enumerate(stream):
        cached.on_request(tenant, record, node=node)
        _reference_on_request(reference, reference_out, tenant, record, node=node)
        if index % 50 == 0:  # other families interleave with the request ones
            _tick(cached, index, tenant)
            _tick(reference, index, tenant)

    assert render_prometheus(cached.registry) == render_prometheus(reference.registry)
    assert cached_out.getvalue() == reference_out.getvalue()
    assert cached.trace_log.traces == reference.trace_log.traces
    # The stream exercised what the test claims to cover.
    assert {record.outcome for _, record, _ in stream} == set(RequestOutcome)
    assert "\\u" in cached_out.getvalue() and '\\"' in cached_out.getvalue()
    assert ('region="eu"' in render_prometheus(cached.registry)) == bool(region)

"""Timeline export: request lifecycles as an inspectable trace.

Each traced request becomes Chrome-trace JSON (``chrome://tracing`` /
Perfetto "trace event" format): an async track per request with its queue,
cold-start and service stages nested inside, one process lane per node (and
per region, for a federated run).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a hard obs dependency
    from repro.obs.spans import RequestTrace


# -- request-lifecycle traces --------------------------------------------------------


def request_trace_events(
    traces: Sequence["RequestTrace"], process_name: str = "traffic"
) -> List[Dict[str, object]]:
    """Request-stage slices as Chrome-trace *async* events ("b"/"e" phases).

    Each request becomes one async track keyed by ``(pid, cat, id)``: an
    outer slice spanning arrival→end, with queue / cold-start / service
    slices nested inside it in lifecycle order.  Async events are the right
    phase here — unlike "X" complete events on a shared tid, they tolerate
    the overlap of many concurrent requests on one node.  Requests that
    never reached a replica (drops, sheds, queue timeouts) land on a
    synthetic ``gateway`` process.
    """
    pids: Dict[str, int] = {}
    events: List[Dict[str, object]] = []

    def pid_for(node: str) -> int:
        if node not in pids:
            pids[node] = len(pids) + 1
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pids[node],
                    "args": {"name": "%s/%s" % (process_name, node)},
                }
            )
        return pids[node]

    for trace in traces:
        pid = pid_for(trace.node or "gateway")
        track = "req-%s-%d" % (trace.tenant, trace.request_id)
        outer = {
            "cat": "request",
            "id": track,
            "pid": pid,
            "tid": 1,
            "args": {
                "tenant": trace.tenant,
                "class": trace.request_class,
                "outcome": trace.outcome,
                "replica": trace.replica,
            },
        }
        events.append(
            dict(outer, name=track, ph="b", ts=trace.arrival_s * 1e6)
        )
        for stage, start_s, duration_s in trace.stages():
            events.append(dict(outer, name=stage, ph="b", ts=start_s * 1e6))
            events.append(
                dict(outer, name=stage, ph="e", ts=(start_s + duration_s) * 1e6)
            )
        events.append(dict(outer, name=track, ph="e", ts=trace.end_s * 1e6))
    return events


def export_traffic_trace(path: str, traces: Sequence["RequestTrace"]) -> str:
    """Write request traces to ``path`` as Chrome-trace JSON."""
    events = request_trace_events(traces)
    content = json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}, indent=2)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    return path


def federation_trace_events(
    traces_by_region: Mapping[str, Sequence["RequestTrace"]],
) -> List[Dict[str, object]]:
    """Request-trace events for a federated run, one pid-group per region.

    Each region's request traces are rendered with the region as the
    process-name prefix (``region/node``), and every region's pids are
    offset past the previous region's, so Perfetto shows the federation
    as one trace with a contiguous block of process lanes per region.
    """
    combined: List[Dict[str, object]] = []
    offset = 0
    for region, traces in traces_by_region.items():
        events = request_trace_events(traces, process_name=region or "traffic")
        if not events:
            # A region that served nothing still gets a named (empty) lane,
            # so the trace always shows every region of the federation.
            events = [
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": 1,
                    "args": {"name": "%s/gateway" % (region or "traffic")},
                }
            ]
        for event in events:
            event["pid"] += offset
        offset = max(int(event["pid"]) for event in events)
        combined.extend(events)
    return combined


def export_federation_trace(
    path: str, traces_by_region: Mapping[str, Sequence["RequestTrace"]]
) -> str:
    """Write a federated run's request traces to ``path``, grouped by region."""
    events = federation_trace_events(traces_by_region)
    content = json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}, indent=2)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    return path


def read_trace_events(path: str) -> List[Dict[str, object]]:
    """Load a Chrome-trace JSON file's event list back (round-trip helper)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["traceEvents"]

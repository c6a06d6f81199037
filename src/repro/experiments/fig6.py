"""Figure 6: inter-node transfer breakdown for a 100 MB payload.

Three panels:

* (a) latency components — transfer, serialization and Wasm VM I/O — for
  Roadrunner (RR), RunC (RC) and WasmEdge (W);
* (b) serialization overhead alone (log scale in the paper);
* (c) the normalized share of each component.
"""

from __future__ import annotations

from repro.experiments.harness import measure_pair
from repro.experiments.results import FigureResult
from repro.workloads.generators import BREAKDOWN_PAYLOAD_MB

#: Runtime axis of Fig. 6, using the paper's abbreviations.
FIG6_RUNTIMES = ("RR", "RC", "W")

_MODE_BY_RUNTIME = {
    "RR": "roadrunner-network",
    "RC": "runc-http",
    "W": "wasmedge-http",
}

PANEL_BREAKDOWN = "a_latency_breakdown_s"
PANEL_SERIALIZATION = "b_serialization_latency_s"
PANEL_NORMALIZED = "c_normalized_share_pct"


def run_fig6() -> FigureResult:
    """Reproduce Fig. 6 and return its three panels."""
    result = FigureResult(
        figure="fig6",
        title="Inter-node transfer breakdown for a %g MB payload" % BREAKDOWN_PAYLOAD_MB,
        x_label="Runtime",
        x_values=list(FIG6_RUNTIMES),
    )
    for runtime in FIG6_RUNTIMES:
        mode = _MODE_BY_RUNTIME[runtime]
        aggregate = measure_pair(mode, BREAKDOWN_PAYLOAD_MB, internode=True)
        total = aggregate.mean_latency_s
        serialization = aggregate.mean_serialization_s
        wasm_io = aggregate.mean_wasm_io_s
        transfer = max(total - serialization - wasm_io, 0.0)
        result.add_point(PANEL_BREAKDOWN, "Transfer", transfer)
        result.add_point(PANEL_BREAKDOWN, "Serialization", serialization)
        result.add_point(PANEL_BREAKDOWN, "Wasm VM I/O", wasm_io)
        result.add_point(PANEL_BREAKDOWN, "Total", total)
        result.add_point(PANEL_SERIALIZATION, "Serialization", serialization)
        if total > 0:
            result.add_point(PANEL_NORMALIZED, "Transfer", 100.0 * transfer / total)
            result.add_point(PANEL_NORMALIZED, "Serialization", 100.0 * serialization / total)
            result.add_point(PANEL_NORMALIZED, "Wasm VM I/O", 100.0 * wasm_io / total)
        else:  # pragma: no cover - defensive
            result.add_point(PANEL_NORMALIZED, "Transfer", 0.0)
            result.add_point(PANEL_NORMALIZED, "Serialization", 0.0)
            result.add_point(PANEL_NORMALIZED, "Wasm VM I/O", 0.0)
    return result

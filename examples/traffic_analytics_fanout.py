"""Traffic analytics fan-out: one ingest function feeding many analysers.

The paper's second motivating workload: traffic data arrives at an ingest
function which fans records out to N analytics functions.  The example runs
the fan-out at several degrees for all four intra-node configurations
(Roadrunner user space, Roadrunner kernel space, RunC HTTP, WasmEdge HTTP)
and prints the latency/throughput scaling table — a miniature of Fig. 9.

Run with::

    python examples/traffic_analytics_fanout.py
"""

from __future__ import annotations

from repro.experiments.environment import INTRA_NODE_MODES
from repro.experiments.harness import measure_fanout
from repro.experiments.panels import mode_label
from repro.metrics.report import format_table
from repro.workloads.scenarios import traffic_records

DEGREES = (1, 5, 10, 25)
PAYLOAD_MB = 2


def main() -> None:
    sample = traffic_records(vehicles=200)
    print("Each analytics branch receives %g MB of traffic records" % PAYLOAD_MB)
    print("(a real sample record batch is %d bytes of JSON)\n" % sample.size)

    latency_rows = []
    throughput_rows = []
    for degree in DEGREES:
        latency_row = [degree]
        throughput_row = [degree]
        for mode in INTRA_NODE_MODES:
            result = measure_fanout(mode, degree=degree, payload_mb=PAYLOAD_MB)
            latency_row.append(round(result.mean_branch_latency_s, 5))
            throughput_row.append(round(result.throughput_rps, 1))
        latency_rows.append(latency_row)
        throughput_rows.append(throughput_row)

    headers = ["fanout"] + [mode_label(mode) for mode in INTRA_NODE_MODES]
    print(format_table(headers, latency_rows, title="Mean per-branch latency (s)"))
    print()
    print(format_table(headers, throughput_rows, title="Aggregate throughput (requests/s)"))
    print(
        "\nRoadrunner (User space) keeps per-branch latency lowest and scales "
        "throughput furthest; WasmEdge pays Wasm-speed serialization on every branch."
    )


if __name__ == "__main__":
    main()

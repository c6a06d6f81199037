"""Figure 7: intra-node payload-size sweep (eight panels).

Chained functions a -> b on one node, payload sizes 1-500 MB, comparing
RoadRunner (User space), RoadRunner (Kernel space), RunC and Wasmedge on
total latency, throughput, serialization latency/throughput, total/user/
kernel CPU and RAM.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.environment import INTRA_NODE_MODES
from repro.experiments.panels import PAYLOAD_SWEEP, sweep_figure
from repro.experiments.results import FigureResult


def run_fig7(sizes_mb: Optional[Sequence[float]] = None) -> FigureResult:
    """Reproduce Fig. 7 and return its eight panels."""
    return sweep_figure(
        "fig7",
        "Intra-node latency/throughput/resources for varying payload sizes",
        PAYLOAD_SWEEP,
        INTRA_NODE_MODES,
        internode=False,
        x_values=sizes_mb,
    )

"""Figure 8: inter-node payload-size sweep (eight panels).

Chained functions a -> b on two nodes (edge -> cloud), payload sizes
1-500 MB, comparing RoadRunner (Network), RunC and Wasmedge on the same eight
panels as Fig. 7.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.environment import INTER_NODE_MODES
from repro.experiments.panels import payload_sweep_figure
from repro.experiments.results import FigureResult


def run_fig8(sizes_mb: Optional[Sequence[float]] = None) -> FigureResult:
    """Reproduce Fig. 8 and return its eight panels."""
    return payload_sweep_figure(
        "fig8",
        "Inter-node latency/throughput/resources for varying payload sizes",
        INTER_NODE_MODES,
        internode=True,
        sizes_mb=sizes_mb,
    )

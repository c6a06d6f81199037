"""Figure 9: intra-node fan-out scalability (eight panels).

Function a fans a 10 MB payload out to N replicas of function b on the same
node, N swept from 1 to 100, comparing RoadRunner (User space), RoadRunner
(Kernel space), RunC and Wasmedge.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.environment import INTRA_NODE_MODES
from repro.experiments.panels import FANOUT_SWEEP, sweep_figure
from repro.experiments.results import FigureResult
from repro.workloads.generators import FANOUT_PAYLOAD_MB


def run_fig9(degrees: Optional[Sequence[int]] = None) -> FigureResult:
    """Reproduce Fig. 9 and return its eight panels."""
    return sweep_figure(
        "fig9",
        "Intra-node fan-out scalability with %g MB transfers" % FANOUT_PAYLOAD_MB,
        FANOUT_SWEEP,
        INTRA_NODE_MODES,
        internode=False,
        x_values=degrees,
    )

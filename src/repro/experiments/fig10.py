"""Figure 10: inter-node fan-out scalability (eight panels).

Function a on the edge node fans a 10 MB payload out to N replicas of
function b on the cloud node, N swept from 1 to 100, comparing RoadRunner
(Network), RunC and Wasmedge.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.environment import INTER_NODE_MODES
from repro.experiments.panels import FANOUT_SWEEP, sweep_figure
from repro.experiments.results import FigureResult
from repro.workloads.generators import FANOUT_PAYLOAD_MB


def run_fig10(degrees: Optional[Sequence[int]] = None) -> FigureResult:
    """Reproduce Fig. 10 and return its eight panels."""
    return sweep_figure(
        "fig10",
        "Inter-node fan-out scalability with %g MB transfers" % FANOUT_PAYLOAD_MB,
        FANOUT_SWEEP,
        INTER_NODE_MODES,
        internode=True,
        x_values=degrees,
    )

"""Figure 10: inter-node fan-out scalability (eight panels).

Function a on the edge node fans a 10 MB payload out to N replicas of
function b on the cloud node, N swept from 1 to 100, comparing RoadRunner
(Network), RunC and Wasmedge.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.environment import INTER_NODE_MODES
from repro.experiments.panels import fanout_sweep_figure
from repro.experiments.results import FigureResult


def run_fig10(degrees: Optional[Sequence[int]] = None) -> FigureResult:
    """Reproduce Fig. 10 and return its eight panels."""
    return fanout_sweep_figure("fig10", "Inter-node", INTER_NODE_MODES, internode=True, degrees=degrees)

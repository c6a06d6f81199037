"""Figure 9: intra-node fan-out scalability (eight panels).

Function a fans a 10 MB payload out to N replicas of function b on the same
node, N swept from 1 to 100, comparing RoadRunner (User space), RoadRunner
(Kernel space), RunC and Wasmedge.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.environment import INTRA_NODE_MODES
from repro.experiments.panels import fanout_sweep_figure
from repro.experiments.results import FigureResult


def run_fig9(degrees: Optional[Sequence[int]] = None) -> FigureResult:
    """Reproduce Fig. 9 and return its eight panels."""
    return fanout_sweep_figure("fig9", "Intra-node", INTRA_NODE_MODES, internode=False, degrees=degrees)

"""Experiment harness: one module per figure of the paper's evaluation.

Each ``run_figX`` function rebuilds the corresponding experiment from scratch
(workload, environment, sweep), returns a
:class:`~repro.experiments.results.FigureResult` with the same panels/series
the paper plots, and can render itself as a plain-text table.  The benchmark
suite under ``benchmarks/`` simply calls these functions.
"""

from repro.experiments.results import FigureResult
from repro.experiments.environment import (
    INTER_NODE_MODES,
    INTRA_NODE_MODES,
    TransferSetup,
    build_fanout_setup,
    build_pair_setup,
)
from repro.experiments.harness import measure_fanout, measure_pair, sweep_pair
from repro.experiments.fig2 import run_fig2a, run_fig2b
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import run_fig10
from repro.experiments.runner import run_all
from repro.experiments.claims import ClaimCheck, evaluate_claims, render_claims
from repro.experiments.sensitivity import SensitivityResult, sweep_parameter

__all__ = [
    "ClaimCheck",
    "evaluate_claims",
    "render_claims",
    "SensitivityResult",
    "sweep_parameter",
    "FigureResult",
    "TransferSetup",
    "INTRA_NODE_MODES",
    "INTER_NODE_MODES",
    "build_pair_setup",
    "build_fanout_setup",
    "measure_pair",
    "measure_fanout",
    "sweep_pair",
    "run_fig2a",
    "run_fig2b",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_all",
]

"""Run every reproduced figure and render the results.

``python -m repro.experiments`` runs all figures with reduced sweeps (so a
laptop finishes in seconds) and prints the tables; ``run_all`` is also what
EXPERIMENTS.md is generated from.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.fig2 import run_fig2a, run_fig2b
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import run_fig10
from repro.experiments.results import FigureResult

#: Reduced sweeps used by the quick run (full sweeps are the default of each
#: run_figX function).
QUICK_SIZES_MB = (1, 10, 100, 500)
QUICK_DEGREES = (1, 10, 50, 100)


def run_all(quick: bool = True) -> Dict[str, FigureResult]:
    """Run every figure; ``quick=True`` trims the sweeps to a few points."""
    sizes: Optional[Sequence[float]] = QUICK_SIZES_MB if quick else None
    degrees: Optional[Sequence[int]] = QUICK_DEGREES if quick else None
    return {
        "fig2a": run_fig2a(),
        "fig2b": run_fig2b(),
        "fig6": run_fig6(),
        "fig7": run_fig7(sizes_mb=sizes),
        "fig8": run_fig8(sizes_mb=sizes),
        "fig9": run_fig9(degrees=degrees),
        "fig10": run_fig10(degrees=degrees),
    }


def render_all(results: Dict[str, FigureResult]) -> str:
    """Render every figure's tables as one text report."""
    blocks = []
    for name in sorted(results):
        blocks.append(results[name].to_text())
    return "\n\n" + ("\n\n" + "=" * 78 + "\n\n").join(blocks)


def main() -> None:  # pragma: no cover - exercised via __main__
    results = run_all(quick=True)
    print(render_all(results))


if __name__ == "__main__":  # pragma: no cover
    main()

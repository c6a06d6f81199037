"""Figure results: the series each experiment produces.

A :class:`FigureResult` mirrors one figure of the paper: an x axis (payload
size, fan-out degree, or a categorical axis), a set of panels (total latency,
throughput, CPU, RAM, ...), and for each panel one series per runtime.
EXPERIMENTS.md is generated from these objects, and the benchmark suite
asserts the paper's headline ratios against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

from repro.metrics.report import format_figure_result

Number = Union[int, float]


class ResultError(KeyError):
    """Raised when a panel or series is missing."""


@dataclass
class FigureResult:
    """All panels of one reproduced figure."""

    figure: str
    title: str
    x_label: str
    x_values: List[Number]
    panels: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    notes: str = ""

    def add_point(self, panel: str, series: str, value: float) -> None:
        """Append one value to ``series`` in ``panel`` (in x order)."""
        self.panels.setdefault(panel, {}).setdefault(series, []).append(value)

    def panel(self, name: str) -> Dict[str, List[float]]:
        if name not in self.panels:
            raise ResultError(
                "figure %s has no panel %r (available: %s)"
                % (self.figure, name, ", ".join(sorted(self.panels)))
            )
        return self.panels[name]

    def series(self, panel: str, series: str) -> List[float]:
        values = self.panel(panel)
        if series not in values:
            raise ResultError(
                "panel %r has no series %r (available: %s)"
                % (panel, series, ", ".join(sorted(values)))
            )
        return values[series]

    def value(self, panel: str, series: str, x: Number) -> float:
        """The value of one series at one x position."""
        if x not in self.x_values:
            raise ResultError("x=%r is not part of figure %s" % (x, self.figure))
        return self.series(panel, series)[self.x_values.index(x)]

    @property
    def modes(self) -> List[str]:
        names: List[str] = []
        for series_map in self.panels.values():
            for name in series_map:
                if name not in names:
                    names.append(name)
        return names

    def to_text(self) -> str:
        """Render every panel as a fixed-width table."""
        blocks: List[str] = ["%s — %s" % (self.figure, self.title)]
        if self.notes:
            blocks.append(self.notes)
        for panel_name in sorted(self.panels):
            blocks.append(
                format_figure_result(
                    title="[%s] %s" % (self.figure, panel_name),
                    x_label=self.x_label,
                    x_values=self.x_values,
                    series=self.panels[panel_name],
                )
            )
        return "\n\n".join(blocks)

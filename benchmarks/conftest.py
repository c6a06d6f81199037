"""Benchmark-suite fixtures.

Each benchmark regenerates one of the paper's figures (or an ablation) and
writes the rendered table to ``results/`` so the regenerated rows can be
inspected after a run.
"""

from __future__ import annotations

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results")


@pytest.fixture(scope="session")
def results_dir() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_result(results_dir):
    """Persist a FigureResult's tables under results/<name>.txt."""

    def _save(name: str, result) -> None:
        path = os.path.join(results_dir, "%s.txt" % name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(result.to_text() + "\n")

    return _save

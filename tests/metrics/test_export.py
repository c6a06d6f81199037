"""Tests for figure export (CSV/JSON/TXT)."""

import csv
import io
import json

import pytest

from repro.experiments.results import FigureResult
from repro.metrics.export import (
    ExportError,
    figure_from_csv,
    figure_from_json,
    figure_to_csv,
    figure_to_dict,
    figure_to_json,
    node_usage_from_figure,
    node_usage_to_figure,
    write_figure,
)
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.engine import MultiTenantTrafficEngine, TrafficConfig
from repro.traffic.tenants import TenantSpec


@pytest.fixture
def figure():
    result = FigureResult(figure="fig7", title="demo", x_label="MB", x_values=[1, 10])
    result.add_point("latency", "RoadRunner", 0.1)
    result.add_point("latency", "RoadRunner", 0.2)
    result.add_point("latency", "Wasmedge", 1.0)
    result.add_point("latency", "Wasmedge", 2.0)
    return result


def test_figure_to_dict_and_json_round_trip(figure):
    as_dict = figure_to_dict(figure)
    assert as_dict["figure"] == "fig7"
    assert as_dict["panels"]["latency"]["RoadRunner"] == [0.1, 0.2]
    parsed = json.loads(figure_to_json(figure))
    assert parsed == json.loads(json.dumps(as_dict))


def test_figure_to_csv_long_form(figure):
    rows = list(csv.reader(io.StringIO(figure_to_csv(figure))))
    assert rows[0] == ["figure", "panel", "series", "MB", "value"]
    assert ["fig7", "latency", "RoadRunner", "1", "0.1"] in rows
    assert ["fig7", "latency", "Wasmedge", "10", "2.0"] in rows
    assert len(rows) == 1 + 4


def test_csv_detects_inconsistent_series(figure):
    figure.add_point("latency", "RoadRunner", 0.3)  # third value for two x positions
    with pytest.raises(ExportError):
        figure_to_csv(figure)


def test_write_figure_formats(tmp_path, figure):
    for fmt in ("csv", "json", "txt"):
        path = write_figure(figure, str(tmp_path / ("out." + fmt)), fmt=fmt)
        with open(path, "r", encoding="utf-8") as handle:
            content = handle.read()
        assert content
    with pytest.raises(ExportError):
        write_figure(figure, str(tmp_path / "out.xml"), fmt="xml")


def test_node_usage_round_trips_through_csv_and_json():
    # A real run's per-node ledger rollups, as --export-nodes writes them.
    tenants = [
        TenantSpec(
            name=name,
            mode=mode,
            arrivals=PoissonArrivals(
                rate_rps=30.0, duration_s=3.0, function=name, payload_mb=2.0, seed=index
            ),
        )
        for index, (name, mode) in enumerate((("web", "roadrunner-user"), ("etl", "runc-http")))
    ]
    nodes = MultiTenantTrafficEngine(tenants, config=TrafficConfig(nodes=2)).run().nodes
    assert len(nodes) == 3  # the node-less cluster shard plus both nodes
    assert all(usage.charges > 0 for usage in nodes.values())
    figure = node_usage_to_figure(nodes)
    assert node_usage_from_figure(figure_from_csv(figure_to_csv(figure))) == nodes
    assert node_usage_from_figure(figure_from_json(figure_to_json(figure))) == nodes

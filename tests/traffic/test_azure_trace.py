"""Tests for the Azure Functions invocations-per-minute trace loader."""

import os

import pytest

from repro.cli import main
from repro.traffic.arrivals import ArrivalError, TraceArrivals, load_azure_trace

FIXTURE = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "fixtures", "azure_trace_sample.csv"
)


def test_loads_all_rows_summed_per_minute():
    arrivals = load_azure_trace(FIXTURE, payload_mb=0.5)
    assert isinstance(arrivals, TraceArrivals)
    requests = arrivals.generate()
    # Fixture totals per minute: 3, 3, 1, 1, 3 -> 11 invocations.
    assert len(requests) == 11
    assert all(request.payload_bytes == 512 * 1024 for request in requests)
    # Minute m's count spreads evenly inside [(m-1)*60, m*60).
    first_minute = [r.arrival_s for r in requests if r.arrival_s < 60.0]
    assert first_minute == pytest.approx([0.0, 20.0, 40.0])
    assert sorted(r.arrival_s for r in requests) == [r.arrival_s for r in requests]


def test_max_minutes_truncates_the_trace():
    requests = load_azure_trace(FIXTURE, max_minutes=2).generate()
    assert len(requests) == 6
    assert max(r.arrival_s for r in requests) < 120.0
    with pytest.raises(ArrivalError):
        load_azure_trace(FIXTURE, max_minutes=0)


def test_deterministic_and_validated(tmp_path):
    first = [r.arrival_s for r in load_azure_trace(FIXTURE).generate()]
    second = [r.arrival_s for r in load_azure_trace(FIXTURE).generate()]
    assert first == second
    with pytest.raises(ArrivalError):
        load_azure_trace(str(tmp_path / "missing.csv"))
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ArrivalError):
        load_azure_trace(str(malformed))
    empty_counts = tmp_path / "empty.csv"
    empty_counts.write_text(
        "HashOwner,HashApp,HashFunction,Trigger,1\no,a,f,http,0\n", encoding="utf-8"
    )
    with pytest.raises(ArrivalError):
        load_azure_trace(str(empty_counts))


def test_cli_replays_a_trace_file(capsys):
    code = main(
        [
            "traffic",
            "--trace-file", FIXTURE,
            "--trace-minutes", "2",
            "--modes", "roadrunner-user",
            "--payload-mb", "0.25",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "pattern=azure" in out
    assert "6 requests offered" in out

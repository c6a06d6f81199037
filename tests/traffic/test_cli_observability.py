"""CLI paths for the telemetry flags: exports, manifest, sketch mode."""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

from repro.cli import main
from repro.metrics.timeline import read_trace_events
from repro.obs import parse_prometheus, read_jsonl


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _quick(*extra):
    return [
        "traffic", "--pattern", "poisson", "--rps", "20", "--duration", "4",
        "--modes", "roadrunner-user", "--payload-mb", "1", "--seed", "9",
    ] + list(extra)


def test_traffic_emits_all_telemetry_artifacts(tmp_path):
    metrics = str(tmp_path / "metrics.prom")
    trace = str(tmp_path / "trace.json")
    events = str(tmp_path / "events.jsonl")
    code, out, err = _run(
        _quick(
            "--metrics-out", metrics,
            "--trace-out", trace,
            "--events-out", events,
            "--progress", "--progress-interval", "2",
        )
    )
    assert code == 0
    assert "Latency waterfall" in out

    parsed = parse_prometheus(open(metrics, encoding="utf-8").read())
    assert parsed["repro_requests_total"]['{tenant="tenant-1",outcome="completed"}'] > 0
    assert "repro_request_latency_seconds" in parsed

    trace_events = read_trace_events(trace)
    assert any(e["ph"] == "b" and e["name"] == "service" for e in trace_events)

    stream = read_jsonl(events)
    assert stream[0]["event"] == "run_start"
    assert stream[-1]["event"] == "run_end"

    assert "[progress]" in err

    manifest = json.load(open(os.path.join(str(tmp_path), "manifest.json"), encoding="utf-8"))
    assert manifest["command"] == "traffic"
    assert manifest["seed"] == 9
    assert manifest["config"]["rps"] == 20.0
    assert manifest["wall_seconds"] >= 0
    assert sorted(os.path.basename(p) for p in manifest["outputs"]) == [
        "events.jsonl", "metrics.prom", "trace.json",
    ]


def test_multi_mode_outputs_are_suffixed_per_mode(tmp_path):
    metrics = str(tmp_path / "metrics.prom")
    code, _, _ = _run(
        [
            "traffic", "--pattern", "poisson", "--rps", "10", "--duration", "3",
            "--modes", "roadrunner-user,runc-http", "--payload-mb", "1",
            "--metrics-out", metrics,
        ]
    )
    assert code == 0
    assert os.path.exists(str(tmp_path / "metrics-roadrunner-user.prom"))
    assert os.path.exists(str(tmp_path / "metrics-runc-http.prom"))


def test_sketch_mode_matches_exact_summary_table(tmp_path):
    code_exact, out_exact, _ = _run(_quick())
    code_sketch, out_sketch, _ = _run(_quick("--sketch-mode"))
    assert code_exact == code_sketch == 0

    def summary_row(text):
        for line in text.splitlines():
            if line.strip().startswith("roadrunner-user"):
                return line
        raise AssertionError("no summary row")

    # Counts (offered/completed/cold starts...) are identical; only
    # percentile columns may differ, and those live in the latency tables.
    assert summary_row(out_exact) == summary_row(out_sketch)


def test_manifest_written_next_to_figure_export(tmp_path):
    export = str(tmp_path / "traffic.csv")
    code, _, _ = _run(_quick("--export", export, "--metrics-out", str(tmp_path / "m.prom")))
    assert code == 0
    manifest = json.load(open(os.path.join(str(tmp_path), "manifest.json"), encoding="utf-8"))
    names = [os.path.basename(p) for p in manifest["outputs"]]
    assert "traffic.csv" in names and "m.prom" in names


def test_profile_flag_writes_loadable_pstats_artifact(tmp_path):
    import pstats

    profile_path = str(tmp_path / "traffic.pstats")
    code, out, err = _run(_quick("--sketch-mode", "--profile", profile_path))
    assert code == 0
    assert os.path.exists(profile_path)
    # The dump must be a real pstats file, and the hot path must be in it.
    stats = pstats.Stats(profile_path)
    functions = {func_name for _, _, func_name in stats.stats}
    assert any("dispatch" in name for name in functions)
    # The top-of-profile table lands on stderr so stdout stays parseable.
    assert "cumulative" in err
    assert profile_path in err

"""Tests of the benchmark itself, at smoke size.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import inspect
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

from bench import spec  # noqa: E402
from bench.trace import LAYERS, ROOT as UNATTRIBUTED, SCHEDULE_AT, LayerTracer, _resolve  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=600,
    )


def _parse(completed: subprocess.CompletedProcess) -> dict:
    """The result line plus the digest printed for each workload."""
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests = {}
    workload = None
    for line in lines:
        if line.startswith("== "):
            workload = line.split()[1]
        elif line.strip().startswith("digest "):
            digests[workload] = line.split()[1]
    result["digests"] = digests
    return result


@pytest.fixture(scope="module")
def plain():
    return _parse(_bench("--smoke", "--reps", "2", "--seed", "3"))


@pytest.fixture(scope="module")
def plain_again():
    return _parse(_bench("--smoke", "--reps", "1", "--seed", "3"))


@pytest.fixture(scope="module")
def traced():
    return _parse(_bench("--smoke", "--reps", "1", "--seed", "3", "--trace", "1"))


def _split(metrics: dict) -> dict:
    """{"w/name": row} -> {w: {name: row}}."""
    out: dict = {}
    for key, row in metrics.items():
        workload, _, name = key.partition("/")
        out.setdefault(workload, {})[name] = row
    return out


def test_benchmark_json_matches_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(spec.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == (
        spec.per_layer_metrics()
    )
    assert set(WORKLOADS) == set(spec.WORKLOADS)


def test_printed_metric_names_equal_benchmark_json(plain, traced):
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for printed, expected in ((plain, end_to_end), (traced, per_layer)):
        assert printed["correct"] is True
        assert printed["failed"] == 0 and printed["attempted"] >= 1
        by_workload = _split(printed["metrics"])
        assert list(by_workload) == list(spec.WORKLOADS)
        for rows in by_workload.values():
            assert {name: row["unit"] for name, row in rows.items()} == expected
            assert all(math.isfinite(row["value"]) for row in rows.values())


def test_runs_repeat_and_tracing_changes_no_output(plain, plain_again, traced):
    first, second = _split(plain["metrics"]), _split(plain_again["metrics"])
    for workload in spec.WORKLOADS:
        sim = {name: row for name, row in first[workload].items() if name.startswith("sim_")
               and name != "sim_req_per_s"}
        assert sim == {name: second[workload][name] for name in sim}
    assert plain["digests"] == plain_again["digests"] == traced["digests"]
    assert len(plain["digests"]) == len(spec.WORKLOADS)


def test_traced_layer_shares_are_sane(traced):
    for workload, rows in _split(traced["metrics"]).items():
        shares = [rows["%s.self_pct" % layer]["value"] for layer in LAYERS]
        assert min(shares) >= 0.0, workload
        assert sum(shares) + rows["trace.unattributed_pct"]["value"] == pytest.approx(100.0)
        # The workload design: each mechanism runs only where it should.
        if workload != "tenants":
            assert rows["middleware.calls"]["value"] == 0, workload
        if workload != "federation":
            assert rows["federation.router.calls"]["value"] == 0, workload
        if workload == "transfers":
            for layer in ("engine", "gateway.queue", "gateway.lb", "runtime.arrive",
                          "obs.streaming", "calibration"):
                assert rows["%s.calls" % layer]["value"] == 0, layer


def _bindings():
    """Every attribute the tracer patches, with its current value."""
    seen = {}
    for entry in [e for entries in LAYERS.values() for e in entries] + [SCHEDULE_AT]:
        owner, names = _resolve(entry)
        for name in names:
            if inspect.ismodule(owner):
                original = getattr(owner, name)
                for module in [m for m in list(sys.modules.values()) if m is not None]:
                    for attr, value in vars(module).items():
                        if value is original:
                            seen[(module.__name__, attr)] = value
            else:
                seen[(owner.__module__ + "." + owner.__qualname__, name)] = vars(owner)[name]
    return seen


@pytest.mark.parametrize("workload", ["steady", "transfers"])
def test_tracer_restores_every_patched_attribute(workload, tmp_path):
    before = _bindings()
    assert len(before) > 100
    case = WORKLOADS[workload](seed=2, smoke=True, out_dir=str(tmp_path))
    with LayerTracer() as tracer:
        patched = _bindings()
        case.prepare()
        case.execute()
    assert all(patched[key] is not value for key, value in before.items())
    assert _bindings() == before
    assert all(_bindings()[key] is value for key, value in before.items())

    stats = tracer.layer_stats()
    self_times = [self_s for _, self_s in stats.values()]
    assert min(self_times) >= -1e-9
    attributed = sum(self_s for layer, (_, self_s) in stats.items() if layer != UNATTRIBUTED)
    assert attributed <= tracer.wall_s + 1e-9
    assert 0.0 <= tracer.overhead_s < tracer.wall_s
    assert sum(self_times) == pytest.approx(tracer.wall_s - tracer.overhead_s)
    assert all(span is not None for span in tracer.spans)


def test_tracer_restores_after_a_failing_run():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with LayerTracer():
            raise RuntimeError("boom")
    assert all(_bindings()[key] is value for key, value in before.items())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = _bench("--workload", "steady", "--smoke", "--reps", "1", cwd=tmp_path)
    assert completed.returncode != 0
    last = completed.stdout.strip().splitlines()[-1:] or [""]
    assert not last[0].startswith("{")


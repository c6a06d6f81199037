"""The repository benchmark: four workloads on two clocks, plus a layer trace.

Run from the repository root::

    python3 bench/run.py                          # every workload, 20 s each
    python3 bench/run.py --workload steady --seed 3 --seconds 20
    python3 bench/run.py --workload tenants --reps 5
    python3 bench/run.py --workload transfers --trace 1

Each measured run is a child process of its own (``bench/worker.py``),
started one at a time; nothing runs in parallel.  A workload is measured by
repeating runs until ``--seconds`` is used up (at least three), or exactly
``--reps`` times.  Every run of one invocation uses the same seed, so every
run must produce the same simulated outputs: a digest mismatch between runs
fails the correctness check.

Printed: one line per metric with its unit, value, quartiles and the number
of runs behind it, then the correctness checks, and as the last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--trace`` the metrics are the end-to-end ones; with ``--trace 1`` one more
run is traced layer by layer and the metrics are the per-layer ones (the
end-to-end numbers always come from untraced runs).

Exit status: 0 when every check passed, 1 when a check failed (the result
line is still printed), 2 when the program could not be run at all (no
result line).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
# Run as a script, sys.path[0] is bench/, whose trace.py would shadow the
# standard library's trace module; import the benchmark as a package instead.
sys.path[0] = str(ROOT)

from bench.spec import END_TO_END, SIM_LAYER_METRICS, WORKLOADS, per_layer_metrics  # noqa: E402
from bench.trace import LAYERS  # noqa: E402

OUT_DIR = ROOT / "bench" / "out"
BASELINE = ROOT / "bench" / "baseline.json"

#: Fewest untraced runs behind a median.
MIN_RUNS = 3
#: A traced run costs about this many untraced ones.
TRACE_COST = 3.0
#: A run that takes longer than this is killed and counted as failed.
RUN_TIMEOUT_S = 150.0


class BenchmarkError(RuntimeError):
    """The program could not be run at all."""


def _spawn(workload: str, seed: int, smoke: bool, trace: bool) -> dict:
    """One run in a fresh interpreter; returns the worker's result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Single-threaded: no BLAS thread pools in the child.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    options = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "out_dir": str(OUT_DIR),
    }
    started = time.monotonic()
    try:
        child = subprocess.run(
            [sys.executable, "-m", "bench.worker", json.dumps(options)],
            cwd=str(ROOT),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"workload": workload, "ops": 0, "error": "run exceeded %.0f s" % RUN_TIMEOUT_S}
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise BenchmarkError(
            "%s run exited with status %d:\n%s" % (workload, child.returncode, child.stderr.strip())
        )
    result = json.loads(lines[-1])
    if "setup_end" in result:
        result["setup_s"] = result["setup_end"] - started
    return result


def _quartiles(values: List[float]):
    """(median, first quartile, third quartile) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _measure(workload: str, seed: int, smoke: bool, seconds: float,
             reps: Optional[int], trace: bool) -> dict:
    """Untraced runs (and one traced run) of one workload; raw results."""
    runs: List[dict] = []
    started = time.monotonic()
    while True:
        if reps is not None:
            if len(runs) >= reps:
                break
        elif len(runs) >= MIN_RUNS:
            elapsed = time.monotonic() - started
            per_run = elapsed / len(runs)
            if elapsed + per_run * (1 + (TRACE_COST if trace else 0)) > seconds:
                break
        runs.append(_spawn(workload, seed, smoke, trace=False))
        if "error" in runs[-1]:
            break
    traced = None
    if trace and "error" not in runs[-1]:
        traced = _spawn(workload, seed, smoke, trace=True)
    return {"runs": runs, "traced": traced}


def _summarize(workload: str, measured: dict) -> dict:
    """Metrics (value, quartiles, count) and correctness of one workload."""
    runs = measured["runs"]
    traced = measured["traced"]
    every = runs + ([traced] if traced else [])
    failures: List[str] = []
    attempted = sum(max(run.get("ops", 0), 1) for run in every)
    failed = 0
    for index, run in enumerate(every):
        if "error" in run:
            failures.append("run %d raised:\n%s" % (index, run["error"].rstrip()))
            failed += max(run.get("ops", 0), 1)
            continue
        failed += run["failed"]
        failures.extend("run %d: %s" % (index, line) for line in run["failures"])
    good = [run for run in runs if "error" not in run]
    digests = {run["digest"] for run in every if "error" not in run}
    if len(digests) > 1:
        failures.append("runs with one seed produced %d different outputs" % len(digests))
    rows: Dict[str, dict] = {}
    if good:
        rows["setup_s"] = _row([run["setup_s"] for run in good], "s")
        rows["peak_rss_mb"] = _row([run["rss_mb"] for run in good], "MB")
        # Throughput is the fastest run's: on a shared host, slower runs
        # measure the neighbours' load more than the program (cf. timeit).
        speeds = [run["ops"] / run["run_s"] for run in good]
        rows["sim_req_per_s"] = _row(speeds, "req/s", value=max(speeds))
        for name, value in good[0]["sim"].items():
            rows[name] = _row([value], END_TO_END[name][0], samples=len(good))
        if traced is not None and "error" not in traced:
            rows.update(_trace_rows(traced, good))
    return {
        "workload": workload,
        "rows": rows,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": good[0]["digest"] if good else None,
        "ops": good[0]["ops"] if good else 0,
    }


def _row(values: List[float], unit: str, samples: Optional[int] = None,
         value: Optional[float] = None) -> dict:
    """One printed metric: the reported value (default the median) and quartiles."""
    median, q1, q3 = _quartiles(values)
    return {"value": median if value is None else value, "unit": unit, "q1": q1, "q3": q3,
            "n": len(values) if samples is None else samples}


def _trace_rows(traced: dict, untraced: List[dict]) -> Dict[str, dict]:
    """Per-layer rows of the traced run, plus its sim-clock layer metrics."""
    trace = traced["trace"]
    wall = trace["wall_s"]
    # Shares are of the traced time less the tracer's own calibrated cost:
    # the layers' self times plus the unattributed remainder.
    untraced_s = wall - trace["overhead_s"]
    rows: Dict[str, dict] = {}
    for layer in LAYERS:
        calls, self_s = trace["layers"][layer]
        rows["%s.calls" % layer] = _row([float(calls)], "count")
        rows["%s.self_pct" % layer] = _row([100.0 * self_s / untraced_s], "%")
    baseline = statistics.median(run["region_s"] for run in untraced)
    rows["trace.wall_s"] = _row([wall], "s")
    rows["trace_overhead_pct"] = _row([100.0 * (traced["region_s"] / baseline - 1.0)], "%")
    rows["trace.overhead_estimate_pct"] = _row([100.0 * (wall / untraced_s - 1.0)], "%")
    rows["trace.unattributed_pct"] = _row([100.0 * trace["unattributed_s"] / untraced_s], "%")
    rows["trace.spans_dropped"] = _row([float(trace["dropped"])], "count")
    for name, (unit, _) in SIM_LAYER_METRICS.items():
        rows[name] = _row([traced["layers"][name]], unit)
    return rows


def _recorded_digest(workload: str, seed: int, smoke: bool) -> Optional[str]:
    """The digest bench/baseline.json holds for this full-size run, if any."""
    if smoke:
        return None
    try:
        with open(BASELINE, "r", encoding="utf-8") as handle:
            recorded = json.load(handle)["digests"]
    except (OSError, ValueError, KeyError):
        return None
    return recorded.get(workload, {}).get(str(seed))


def _print_report(summary: dict, names: List[str], seed: int, smoke: bool) -> None:
    workload = summary["workload"]
    print("== %s (seed %d, %d ops per run)" % (workload, seed, summary["ops"]))
    print("   %-44s %-8s %14s %14s %14s %4s" % ("metric", "unit", "value", "q1", "q3", "n"))
    for name in names:
        row = summary["rows"].get(name)
        if row is None:
            continue
        print("   %-44s %-8s %14.6g %14.6g %14.6g %4d"
              % (name, row["unit"], row["value"], row["q1"], row["q3"], row["n"]))
    recorded = _recorded_digest(workload, seed, smoke)
    match = "n/a" if recorded is None else str(recorded == summary["digest"]).lower()
    print("   digest %s (outputs_match: %s)" % (summary["digest"], match))
    if summary["failures"]:
        print("   checks FAILED:")
        for line in summary["failures"]:
            print("     " + line.replace("\n", "\n     "))
    else:
        print("   checks passed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all of them, in turn)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement time per workload (default 20)")
    parser.add_argument("--reps", type=int, help="exactly this many runs instead of --seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also trace one run and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (seconds per run), for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be >= 1")
    if not (ROOT / "src" / "repro").is_dir():
        print("error: no program source at %s" % (ROOT / "src" / "repro"), file=sys.stderr)
        return 2

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    names = list(per_layer_metrics()) if args.trace else list(END_TO_END)
    summaries = []
    try:
        for workload in workloads:
            measured = _measure(workload, args.seed, args.smoke, args.seconds, args.reps,
                                bool(args.trace))
            summary = _summarize(workload, measured)
            _print_report(summary, names, args.seed, args.smoke)
            summaries.append(summary)
    except BenchmarkError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    correct = all(not summary["failures"] for summary in summaries)
    metrics: Dict[str, dict] = {}
    for summary in summaries:
        prefix = "" if args.workload else summary["workload"] + "/"
        for name in names:
            row = summary["rows"].get(name)
            if row is not None:
                metrics[prefix + name] = {"value": row["value"], "unit": row["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(summary["attempted"] for summary in summaries),
        "failed": sum(summary["failed"] for summary in summaries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

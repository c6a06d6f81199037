"""One measured run of one workload, in a process of its own.

``bench/run.py`` starts this module once per run, one at a time, as
``python -m bench.worker <json arguments>`` from the repository root, and
reads the single JSON line it prints last:

* ``setup_end`` — ``time.monotonic()`` when set-up ended; ``run.py``
  subtracts its own reading taken just before starting the process, so
  ``setup_s`` covers interpreter start, imports, input generation and
  engine construction;
* ``region_s`` / ``run_s`` — host seconds of set-up after imports plus the
  run, and of the run alone (from ``run()`` through every export);
* ``ops``, ``failed``, ``failures``, ``sim``, ``layers``, ``digest``,
  ``rss_mb`` — what :mod:`bench.workloads` measured and checked;
* ``trace`` — per-layer calls and self time when the run was traced.

Exit status 2 means the program could not even be imported.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
import traceback


def main(argv=None) -> int:
    options = json.loads((argv if argv is not None else sys.argv[1:])[0])
    try:
        from bench.trace import ROOT, LayerTracer
        from bench.workloads import WORKLOADS
    except ImportError:
        traceback.print_exc()
        return 2

    out_dir = options["out_dir"]
    scratch = os.path.join(out_dir, "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    workload = WORKLOADS[options["workload"]](options["seed"], options["smoke"], scratch)
    result = {"workload": workload.name, "seed": workload.seed, "ops": 0}
    try:
        tracer = LayerTracer() if options["trace"] else None
        start = time.perf_counter()
        if tracer is None:
            workload.prepare()
            result["setup_end"] = time.monotonic()
            middle = time.perf_counter()
            workload.execute()
        else:
            with tracer:
                with tracer.span("bench.prepare"):
                    workload.prepare()
                result["setup_end"] = time.monotonic()
                middle = time.perf_counter()
                workload.execute()
        end = time.perf_counter()
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["region_s"] = end - start
        result["run_s"] = end - middle
        result["ops"] = workload.ops
        evaluation = workload.evaluate()
        result.update(
            failed=evaluation.failed,
            failures=evaluation.failures,
            sim=evaluation.sim,
            layers=evaluation.layers,
            digest=evaluation.digest,
        )
        if tracer is not None:
            stats = tracer.layer_stats()
            result["trace"] = {
                "wall_s": tracer.wall_s,
                "overhead_s": tracer.overhead_s,
                "dropped": tracer.dropped,
                "unattributed_s": stats.pop(ROOT)[1],
                "layers": {layer: list(value) for layer, value in stats.items()},
            }
            tracer.write(
                os.path.join(out_dir, "%s.trace.json" % workload.name),
                meta={"workload": workload.name, "seed": workload.seed},
            )
    except Exception:  # the program failed: report it as a failed run
        result["error"] = traceback.format_exc()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark: process-parallel mode comparison.

Not a paper figure — the regression gate for whole-run parallelism.  A mode
comparison ships each mode's complete cluster simulation (its own nodes,
per-node ledger shards and clock) to a worker process.  The assertions pin
the two properties that must hold:

* **Determinism across execution strategies.**  The parallel comparison
  returns summaries identical to the serial one under the same seeds.

* **No wall-clock regression.**  On multi-core hosts the compared runs
  execute concurrently and come in at or below the serial time; the
  assertion keeps a noise band so single-core CI, where the pool
  deliberately degrades to the serial path, stays green.
"""

import os
import time

from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.engine import run_comparison

DURATION_S = 20.0

#: Parallel may not exceed serial by more than this factor on a single-core
#: host, where both paths execute the same serial code (a pure noise band).
NO_REGRESSION_FACTOR = 1.25


def test_process_parallel_mode_comparison_matches_serial():
    requests = PoissonArrivals(
        rate_rps=120.0, duration_s=DURATION_S, payload_mb=1.0, seed=11
    ).generate()
    modes = ("roadrunner-user", "runc-http")

    start = time.perf_counter()
    serial = run_comparison(requests, modes=modes)
    serial_wall = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_comparison(requests, modes=modes, parallel=True)
    parallel_wall = time.perf_counter() - start

    assert parallel == serial
    limit = NO_REGRESSION_FACTOR if (os.cpu_count() or 1) < 2 else 1.0
    assert parallel_wall <= serial_wall * limit + 0.5, (
        "parallel comparison regressed wall-clock: %.3fs vs serial %.3fs"
        % (parallel_wall, serial_wall)
    )

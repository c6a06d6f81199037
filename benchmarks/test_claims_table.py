"""Benchmark: evaluate every headline claim and persist the comparison table.

This is the machine-checkable form of ``repro claims``: it measures the
experiments behind each headline claim of the paper (at the 100 MB / fan-out
50 operating points), writes the paper-vs-measured table to
``results/claims.txt`` and fails if any claim's direction or conservative
bound stops holding.
"""

import os

from repro.experiments.claims import evaluate_claims, render_claims


def test_headline_claims_table(benchmark, results_dir):
    checks = benchmark.pedantic(
        evaluate_claims,
        kwargs={"payload_mb": 100, "fanout_degree": 50},
        rounds=1,
        iterations=1,
    )
    table = render_claims(checks)
    with open(os.path.join(results_dir, "claims.txt"), "w", encoding="utf-8") as handle:
        handle.write(table + "\n")
    unsatisfied = [check.claim_id for check in checks if not check.satisfied]
    assert unsatisfied == [], "claims no longer satisfied: %s" % ", ".join(unsatisfied)

"""Malformed federation flags of the ``traffic`` subcommand.

Each of these used to run to exit status 0 or surface a bare Python
message: a NaN failure time, a ``--fail-region`` with no ``--clusters`` to
fail, a fractional or boolean node count silently coerced by ``int()``, a
NaN memory budget, and a non-numeric node count reported as ``invalid
literal for int()``.  Each must now exit with status 2 and a message that
names the flag or the field.  The CLI runs in a child process with a
timeout, so a regression to a hang fails the test instead of blocking the
suite.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

TWO_REGIONS = json.dumps([{"region": "a"}, {"region": "b"}])


def _traffic(*argv):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    return subprocess.run(
        [sys.executable, "-m", "repro", "traffic", "--pattern", "poisson",
         "--rps", "20", "--duration", "1", "--sketch-mode", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def _assert_refused(result, message):
    assert result.returncode == 2, result.stderr
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_non_finite_fail_time_is_refused():
    result = _traffic("--clusters", TWO_REGIONS, "--fail-region", "a@nan")
    _assert_refused(
        result, "--fail-region 'a@nan': time must be a finite non-negative number"
    )


def test_fail_region_without_clusters_is_refused():
    result = _traffic("--fail-region", "garbage")
    _assert_refused(result, "--fail-region needs --clusters")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("nodes", 2.5, "'nodes' must be an integer, got 2.5"),
        ("nodes", True, "'nodes' must be an integer, got True"),
        ("nodes", "two", "'nodes' must be an integer, got 'two'"),
        ("memory_mb", float("nan"), "'memory_mb' must be a finite number, got nan"),
    ],
    ids=["fractional-nodes", "boolean-nodes", "string-nodes", "nan-memory"],
)
def test_bad_cluster_field_is_refused_naming_it(field, value, message):
    clusters = json.dumps([{"region": "a", field: value}, {"region": "b"}])
    result = _traffic("--clusters", clusters)
    _assert_refused(result, "--clusters region 'a': " + message)

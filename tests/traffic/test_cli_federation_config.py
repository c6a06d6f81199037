"""Malformed federation flags of the ``traffic`` subcommand.

Each of these used to run to exit status 0 or surface a bare Python
message: a NaN failure time, a ``--fail-region`` with no ``--clusters`` to
fail, a region named by two ``--fail-region`` specs (the second overwrote
the first), a fractional or boolean node count silently coerced by
``int()``, a NaN memory budget, a non-numeric node count reported as
``invalid literal for int()``, a ``--clusters`` file path parsed as inline
JSON, and gateway knobs (``--oversubscription``, ``--starvation-guard``)
checked only on the single-cluster path.  Each must now exit with status 2
and a message that names the flag or the field.  The CLI runs in a child process with a
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


def test_fail_region_naming_a_region_twice_is_refused():
    # The second spec used to overwrite the first, silently running one failure.
    result = _traffic(
        "--clusters", TWO_REGIONS, "--fail-region", "a@1", "--fail-region", "a@5"
    )
    _assert_refused(
        result, "invalid traffic parameters: --fail-region names region 'a' twice"
    )


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


def test_clusters_config_is_read_from_a_file_path(tmp_path):
    path = tmp_path / "clusters.json"
    path.write_text(TWO_REGIONS, encoding="utf-8")
    from_file = _traffic("--clusters", str(path))
    inline = _traffic("--clusters", TWO_REGIONS)
    assert from_file.returncode == 0, from_file.stderr
    assert from_file.stdout == inline.stdout
    assert "Federated load: 2 regions" in from_file.stdout


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--oversubscription", "0.5", "oversubscription must be >= 1.0"),
        ("--starvation-guard", "0", "starvation_guard must be >= 1"),
    ],
    ids=["oversubscription", "starvation-guard"],
)
def test_federated_run_refuses_bad_gateway_knobs(flag, value, message):
    result = _traffic("--clusters", json.dumps([{"region": "a", "nodes": 2}]), flag, value)
    _assert_refused(result, message)

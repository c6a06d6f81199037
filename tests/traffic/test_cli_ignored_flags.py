"""Flags a run kind does not wire are announced, not silently dropped.

``--export-nodes`` only writes a file for ``--tenants`` runs on one
cluster, ``--progress`` prints no heartbeat in ``--clusters`` runs, and
``--trace-file`` replays nothing once ``--tenants`` defines the arrivals.
Each combination used to exit 0 without a word.  The run still succeeds,
and stderr carries the same ``note: ... ignoring it`` line that
``--compare-policies`` prints for the flags it does not wire.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(__file__)
SRC = os.path.abspath(os.path.join(HERE, os.pardir, os.pardir, "src"))
TRACE = os.path.abspath(os.path.join(HERE, os.pardir, "fixtures", "azure_trace_sample.csv"))
TENANTS = json.dumps([{"name": "app", "rps": 5, "duration": 2}])
CLUSTERS = json.dumps([{"region": "eu"}])


def _traffic(cwd, *argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro", "traffic", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(cwd),
        timeout=60,
    )


def _note(flag, runs):
    return "note: %s is not wired into %s runs; ignoring it" % (flag, runs)


@pytest.mark.parametrize(
    "argv, runs",
    [
        (["--modes", "roadrunner-user", "--duration", "2"], "--modes"),
        (["--tenants", TENANTS, "--clusters", CLUSTERS], "--clusters"),
        (["--compare-policies", "target", "--duration", "2"], "--compare-policies"),
    ],
    ids=["modes", "clusters", "compare-policies"],
)
def test_export_nodes_outside_single_cluster_tenant_runs_is_announced(tmp_path, argv, runs):
    result = _traffic(tmp_path, *argv, "--export-nodes", "nodes.csv")
    assert result.returncode == 0, result.stderr
    assert _note("--export-nodes", runs) in result.stderr
    assert os.listdir(str(tmp_path)) == []


def test_progress_in_clusters_runs_is_announced(tmp_path):
    result = _traffic(
        tmp_path, "--tenants", TENANTS, "--clusters", CLUSTERS,
        "--progress", "--progress-interval", "0.5",
    )
    assert result.returncode == 0, result.stderr
    assert _note("--progress", "--clusters") in result.stderr
    assert "[progress]" not in result.stderr
    assert os.listdir(str(tmp_path)) == []


def test_trace_file_in_tenants_runs_is_announced(tmp_path):
    result = _traffic(tmp_path, "--tenants", TENANTS, "--trace-file", TRACE)
    assert result.returncode == 0, result.stderr
    assert _note("--trace-file", "--tenants") in result.stderr
    assert os.listdir(str(tmp_path)) == []

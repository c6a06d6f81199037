"""An offered load too large to generate exits 2 at once, naming the bound.

Every arrival is generated before the simulation starts, so a stream of
``rps × duration`` far beyond any real run used to hang (``--rps 1e12``) or
die with a ``MemoryError`` traceback (``--duration 1e300``).
``make_arrivals`` now refuses a pattern whose expected offered load exceeds
``MAX_OFFERED_REQUESTS``, and the CLI reports it like any other invalid
parameter.  Each case runs in a child process under a time limit and an
address-space cap, so a regression fails the test instead of the machine.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.traffic.arrivals import MAX_OFFERED_REQUESTS, ArrivalError, make_arrivals

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src"))
MEMORY_CAP_BYTES = 1 << 30


def _cap_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def _traffic(cwd, *argv):
    return subprocess.run(
        [sys.executable, "-m", "repro", "traffic", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        cwd=str(cwd),
        timeout=30,
        preexec_fn=_cap_memory if os.name == "posix" else None,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--modes", "roadrunner-user", "--rps", "1e12", "--duration", "1"],
        ["--duration", "1e300", "--rps", "1"],
        ["--tenants", json.dumps([{"name": "flood", "rps": 1e12, "duration": 1}])],
    ],
    ids=["rps", "duration", "tenants"],
)
def test_huge_offered_load_exits_2_naming_the_bound(tmp_path, argv):
    result = _traffic(tmp_path, *argv)
    assert result.returncode == 2, result.stderr
    assert "invalid traffic parameters" in result.stderr
    assert str(MAX_OFFERED_REQUESTS) in result.stderr
    assert "Traceback" not in result.stderr
    assert os.listdir(str(tmp_path)) == []


def test_the_bound_admits_the_largest_load_it_names():
    # Construction generates nothing, so a load at the bound is cheap to build.
    arrivals = make_arrivals("poisson", rate_rps=1e4, duration_s=1e4)
    assert arrivals.rate_rps * arrivals.duration_s == MAX_OFFERED_REQUESTS
    with pytest.raises(ArrivalError, match=str(MAX_OFFERED_REQUESTS)):
        make_arrivals("bursty", rate_rps=1e4, duration_s=1.0001e4)

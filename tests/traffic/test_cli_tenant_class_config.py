"""Non-finite numbers in the ``--tenants`` and ``--classes`` JSON configs.

JSON configs may spell ``NaN`` and ``Infinity``.  These used to hang the
run (a NaN or infinite arrival rate or duration), end in an
``OverflowError`` traceback (an infinite payload), run to exit status 0 (a
NaN deadline) or fail far from the config with a message naming no field
(a NaN share or RSS).  Each must now exit with status 2 and a message that
names the tenant or class and the field.  The CLI runs in a child process
with a timeout, so a regression to a hang fails the test instead of
blocking the suite.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

NAN, INF = float("nan"), float("inf")


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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("rps", NAN, "'rps' must be a finite number, got nan"),
        ("rps", INF, "'rps' must be a finite number, got inf"),
        ("duration", NAN, "'duration' must be a finite number, got nan"),
        ("payload_mb", INF, "'payload_mb' must be a finite number, got inf"),
        ("rss_mb", NAN, "'rss_mb' must be a finite number, got nan"),
        ("weight", 1.5, "'weight' must be an integer, got 1.5"),
    ],
    ids=["nan-rps", "infinite-rps", "nan-duration", "infinite-payload", "nan-rss",
         "fractional-weight"],
)
def test_bad_tenant_field_is_refused_naming_it(field, value, message):
    tenants = json.dumps([{"name": "a", "duration": 1, field: value}, {"name": "b"}])
    result = _traffic("--tenants", tenants)
    _assert_refused(result, "tenant 'a': " + message)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("deadline", NAN, "'deadline' must be a finite number, got nan"),
        ("share", NAN, "'share' must be a finite number, got nan"),
    ],
    ids=["nan-deadline", "nan-share"],
)
def test_bad_class_field_is_refused_naming_it(field, value, message):
    classes = json.dumps([{"name": "rt", field: value}, {"name": "bulk"}])
    result = _traffic("--classes", classes)
    _assert_refused(result, "invalid --classes: class 'rt': " + message)


def test_bad_class_field_inside_a_tenant_names_both():
    tenants = json.dumps(
        [{"name": "a", "duration": 1, "classes": [{"name": "rt", "deadline": NAN}]}]
    )
    result = _traffic("--tenants", tenants)
    _assert_refused(
        result, "tenant 'a': invalid classes: class 'rt': 'deadline' must be a finite number"
    )

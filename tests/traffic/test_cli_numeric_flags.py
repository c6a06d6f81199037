"""Non-finite values of the ``traffic`` subcommand's numeric flags.

``float()`` parses ``nan`` and ``inf``, and before the flags rejected them
a NaN rate or an infinite duration never ended the arrival stream (the run
hung), an infinite payload raised ``OverflowError`` and a NaN keep-alive
was silently accepted.  Each must now exit with status 2 and a message
naming the flag.  The CLI runs in a child process with a timeout, so a
regression to a hang fails the test instead of blocking the suite.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _traffic(*argv):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    return subprocess.run(
        [sys.executable, "-m", "repro", "traffic", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--rps", "nan"),
        ("--duration", "inf"),
        ("--payload-mb", "inf"),
        ("--keep-alive", "nan"),
        ("--node-memory-mb", "nan"),
        ("--timeout", "-inf"),
    ],
)
def test_non_finite_numeric_flag_exits_2_naming_the_flag(flag, value):
    # A short run first, so a regression that accepts the value fails fast;
    # the flag under test comes last and wins.
    result = _traffic("--duration", "1", "--modes", "roadrunner-user", "%s=%s" % (flag, value))
    assert result.returncode == 2, result.stderr
    assert "argument %s: must be a finite number, got %r" % (flag, value) in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_a_non_number_still_names_the_flag():
    result = _traffic("--rps", "fast")
    assert result.returncode == 2
    assert "argument --rps: invalid number: 'fast'" in result.stderr

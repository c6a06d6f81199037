"""Non-finite and oversized values of the ``traffic`` subcommand's numeric flags.

``float()`` parses ``nan`` and ``inf``, and before the flags rejected them
a NaN rate or an infinite duration never ended the arrival stream (the run
hung), an infinite payload raised ``OverflowError`` and a NaN keep-alive
was silently accepted.  Each must now exit with status 2 and a message
naming the flag.  The CLI runs in a child process with a timeout, so a
regression to a hang fails the test instead of blocking the suite.

A payload larger than a Wasm mode's linear memory can stage raised
``OutOfMemoryError``, and one too large to count in bytes raised
``OverflowError``; both must exit with status 2 naming ``payload_mb``.
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


# The largest payload each Wasm mode's linear memory (65,536 pages of
# 64 KiB above a 1 KiB reserved region) can stage; WasmEdge stages the
# serialized copy beside the payload.  Each decimal below converts to the
# byte count shown, and the second of each pair to one byte more.
@pytest.mark.parametrize(
    "mode, at_bound, above, largest",
    [
        ("roadrunner-user", "4095.9990234375", "4095.9990243911743", 4294966272),
        ("wasmedge-http", "2002.9333305358887", "2002.933331489563", 2100227820),
    ],
)
def test_payload_beyond_the_linear_memory_exits_2_naming_the_bound(
    mode, at_bound, above, largest
):
    message = "the largest %s payload, %s MB (%d bytes)" % (mode, at_bound, largest)
    ok = _traffic("--duration", "1", "--rps", "2", "--modes", mode, "--payload-mb", at_bound)
    assert ok.returncode == 0, ok.stderr
    for result in (
        _traffic("--duration", "1", "--rps", "2", "--modes", mode, "--payload-mb", above),
        _traffic(
            "--tenants",
            '[{"name": "big", "mode": "%s", "payload_mb": %s, "rps": 2, "duration": 1}]'
            % (mode, above),
        ),
    ):
        assert result.returncode == 2, result.stderr
        assert "invalid traffic parameters: payload_mb %s (%d bytes) exceeds %s" % (
            above, largest + 1, message
        ) in result.stderr
        assert "Traceback" not in result.stderr


def test_a_payload_too_large_to_count_in_bytes_exits_2():
    result = _traffic("--duration", "1", "--payload-mb", "1e308")
    assert result.returncode == 2
    assert "invalid traffic parameters: payload_mb 1e+308 is too large to count in bytes" in (
        result.stderr
    )
    assert "Traceback" not in result.stderr

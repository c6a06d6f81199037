"""Invalid flags of ``repro claims`` and ``repro select`` exit 2 with a message.

These used to end in tracebacks: ``float()`` accepts ``nan`` and ``inf``
(a ``ValueError`` or ``OverflowError`` later), a non-positive payload or
fan-out failed deep in the workload or environment builders, and a payload
larger than a Wasm linear memory raised ``OutOfMemoryError``.  ``select``
turned a 1e300 MB payload into a 300-digit latency.  Each case must now
exit with status 2, print nothing on stdout and say what is wrong on
stderr.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.cli import main

BOUND = "exceeds the largest wasmedge-http payload"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["claims", "--payload-mb", "nan"], "argument --payload-mb: must be a finite number"),
        (["claims", "--payload-mb", "inf"], "argument --payload-mb: must be a finite number"),
        (["claims", "--payload-mb", "0"], "--payload-mb must be at least one byte"),
        (["claims", "--payload-mb", "-1"], "--payload-mb must be at least one byte"),
        (["claims", "--payload-mb", "1e-9"], "--payload-mb must be at least one byte"),
        (["claims", "--payload-mb", "1e12"], BOUND),
        (["claims", "--fanout", "0"], "--fanout must be at least 1, got 0"),
        (["claims", "--fanout", "1000"], "1000-branch fan-out of 10 MB does not fit"),
        (["select", "--payload-mb", "inf"], "argument --payload-mb: must be a finite number"),
        (["select", "--payload-mb", "1e300"], BOUND),
        (["select", "--hops", "0"], "a workflow needs at least one hop"),
        (["select", "--cold-start-fraction", "2"], "cold_start_fraction must lie in [0, 1]"),
    ],
)
def test_invalid_claims_and_select_flags_exit_2_with_a_message(argv, message):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag's type this way
            code = exc.code
    assert code == 2
    assert message in err.getvalue()
    assert out.getvalue() == ""

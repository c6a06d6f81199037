"""Importing the CLI and the traffic package loads no process-pool machinery.

Compared runs (runtime modes, scaling policies) execute one after another
in one process, so nothing the program imports should pull in
``multiprocessing`` or ``concurrent.futures``: they cost start-up time and
resident memory on every invocation and serve no code path.
"""

import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def test_cli_and_traffic_imports_load_no_process_pool():
    probe = (
        "import sys, repro.cli, repro.traffic; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "[]"

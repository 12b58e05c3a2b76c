"""The benchmark harness still runs against the package in this checkout.

``perfbench`` wraps every catalog op and traced callable by name, so an op
signature change that breaks its tracer should fail here, not only in a
benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_run_is_ok():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout, proc.stdout

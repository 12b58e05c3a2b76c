"""Smoke test: every script under ``demos/`` runs cleanly from the checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp_path)  # 06_mat_files.py leaves its work directory behind
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()

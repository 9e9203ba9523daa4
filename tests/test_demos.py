"""Each demo script runs to completion in a fresh interpreter and prints
exactly its recorded output (tests/demo_outputs/<demo>.txt)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
OUTPUTS = Path(__file__).resolve().parent / "demo_outputs"


def test_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = (OUTPUTS / f"{demo.stem}.txt").read_text(encoding="utf-8")
    assert proc.stdout == want

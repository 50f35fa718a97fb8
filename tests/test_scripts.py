"""Smoke tests: each experiment script runs end to end on tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("name,args", [
    ("waring_experiment.py", ["--p", "2147483647", "--min-j", "4", "--max-j", "5",
                              "--samples", "2"]),
    ("strata_survey.py", ["--max-j", "4"]),
])
def test_script_runs(name, args):
    proc = _run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_hasse_gallery_writes_dot_files(tmp_path):
    proc = _run_script("hasse_gallery.py", "--max-j", "4", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("hasse_d*_j*.dot"))) == 10  # 1 <= d <= j <= 4

"""The acceptance suite under the oldest Python that `pyproject.toml` claims (`requires-python >= 3.10`).

The library uses the standard library alone, so a bare 3.10 interpreter runs it; the test skips
where none is installed."""

import os
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _python310() -> str | None:
    """`python3.10` on PATH if it runs (a pyenv shim of a version not selected exits 127), else a
    3.10 interpreter under $PYENV_ROOT (default ~/.pyenv)."""
    exe = shutil.which("python3.10")
    if exe and subprocess.run([exe, "--version"], capture_output=True, timeout=10).returncode == 0:
        return exe
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    found = sorted(root.glob("versions/3.10*/bin/python"))
    return str(found[0]) if found else None


def test_verify_passes_under_python_3_10():
    exe = _python310()
    if exe is None:
        pytest.skip("no Python 3.10 interpreter found")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [exe, "-m", "binforms.cli", "verify", "--max-j", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all criteria passed" in proc.stdout

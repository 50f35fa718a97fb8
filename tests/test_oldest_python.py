"""The acceptance suite under the oldest Python that `pyproject.toml` claims (`requires-python >= 3.10`),
and under the newest CPython installed.

The library uses the standard library alone, so a bare interpreter runs it; each test skips where its
interpreter is not installed."""

import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _pyenv_pythons() -> list[Path]:
    """The CPython interpreters under $PYENV_ROOT (default ~/.pyenv), oldest version first."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    versions = [(tuple(map(int, m.groups())), exe) for exe in root.glob("versions/*/bin/python")
                if (m := re.fullmatch(r"(\d+)\.(\d+)\.(\d+)", exe.parent.parent.name))]
    return [exe for _, exe in sorted(versions)]


def _python310() -> str | None:
    """`python3.10` on PATH if it runs (a pyenv shim of a version not selected exits 127), else a
    3.10 interpreter under $PYENV_ROOT."""
    exe = shutil.which("python3.10")
    if exe and subprocess.run([exe, "--version"], capture_output=True, timeout=10).returncode == 0:
        return exe
    found = [exe for exe in _pyenv_pythons() if exe.parent.parent.name.startswith("3.10.")]
    return str(found[0]) if found else None


def _newest_python() -> str | None:
    """The newest CPython 3 under $PYENV_ROOT."""
    found = [exe for exe in _pyenv_pythons() if exe.parent.parent.name.startswith("3.")]
    return str(found[-1]) if found else None


def _verify_passes_under(exe: str | None, which: str) -> None:
    if exe is None:
        pytest.skip(f"no {which} interpreter found")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [exe, "-m", "binforms.cli", "verify", "--max-j", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all criteria passed" in proc.stdout


def test_verify_passes_under_python_3_10():
    _verify_passes_under(_python310(), "Python 3.10")


def test_verify_passes_under_the_newest_python():
    _verify_passes_under(_newest_python(), "CPython 3")

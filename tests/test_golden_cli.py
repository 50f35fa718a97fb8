"""CLI stdout and exit codes, byte for byte, against a recorded golden set.

Each case in `golden/cases.json` is one `binforms` command line, run in
process from inside `golden/` (its input files live in `golden/inputs/`).
The expected stdout of case NAME is `golden/stdout/NAME.txt`; the expected
exit codes are in `golden/exit_codes.json`.  Record the named cases (a new
case, or one whose change of output is intended); the others stay as they are:

    PYTHONPATH=src python tests/test_golden_cli.py --record NAME [NAME ...]
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from binforms.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@contextmanager
def _in_golden_dir():
    old = os.getcwd()
    os.chdir(GOLDEN)
    try:
        yield
    finally:
        os.chdir(old)


def run_case(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with _in_golden_dir(), redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue().encode("utf-8")


def _expected_exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden(case):
    rc, stdout = run_case(case["argv"])
    assert rc == _expected_exit_codes()[case["name"]]
    assert stdout == (GOLDEN / "stdout" / f"{case['name']}.txt").read_bytes()


def test_every_case_is_recorded():
    names = [c["name"] for c in CASES]
    assert len(set(names)) == len(names)
    assert sorted(_expected_exit_codes()) == sorted(names)
    assert sorted(p.stem for p in (GOLDEN / "stdout").iterdir()) == sorted(names)


def record(names: list[str]) -> None:
    """Run and store only the named cases; every other recording is kept."""
    by_name = {c["name"]: c for c in CASES}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        sys.exit(f"no such case in golden/cases.json: {', '.join(unknown)}")
    (GOLDEN / "stdout").mkdir(exist_ok=True)
    path = GOLDEN / "exit_codes.json"
    codes = _expected_exit_codes() if path.exists() else {}
    for name in names:
        codes[name], stdout = run_case(by_name[name]["argv"])
        (GOLDEN / "stdout" / f"{name}.txt").write_bytes(stdout)
    order = [c["name"] for c in CASES if c["name"] in codes]
    path.write_text(json.dumps({n: codes[n] for n in order}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"] or not sys.argv[2:]:
        sys.exit(__doc__)
    record(sys.argv[2:])

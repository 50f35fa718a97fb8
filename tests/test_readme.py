"""The names, subcommands, scripts and example the README gives all exist."""

import argparse
import importlib
import re
from pathlib import Path

import binforms
from binforms.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end != -1 else None]


def _resolve(dotted: str):
    parts = dotted.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ModuleNotFoundError:
            continue
        for attr in parts[k:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_library_entry_points_are_top_level_exports():
    prose = _section("Library").split("```")[-1]
    names = re.findall(r"`([A-Za-z_][\w.]*)`", prose)
    bare = [n for n in names if "." not in n]
    assert len(bare) >= 20
    for name in bare:
        assert name in binforms.__all__, name
        assert hasattr(binforms, name), name


def test_every_dotted_binforms_name_resolves():
    dotted = set(re.findall(r"`(binforms(?:\.\w+)+)", README))
    assert "binforms.verify.run_all" in dotted
    for name in sorted(dotted):
        assert _resolve(name) is not None, name


def test_cli_sections_name_real_subcommands():
    headings = re.findall(r"^### (\w+) — ", _section("CLI"), flags=re.M)
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(headings) == sorted(sub.choices)


def test_listed_scripts_exist():
    scripts = re.findall(r"^- `(\w+\.py)`", _section("Experiment scripts"), flags=re.M)
    assert scripts
    for name in scripts:
        assert (ROOT / "scripts" / name).is_file(), name


def test_library_example_runs():
    code = _section("Library").split("```python\n")[1].split("```")[0]
    exec(compile(code, "README.md", "exec"), {})

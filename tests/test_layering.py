"""Module layering: every elimination goes through one of `linalg`'s two entry
points, `rref` (Gauss-Jordan) and `echelon_extend` (the down-rungs' echelon
reduction), the Q row representation stays inside `linalg`, and an ideal is
validated where it enters.

`linalg` calls `rref` through its module global and `spaces` calls
`echelon_extend` through `linalg`'s, so rebinding `binforms.linalg.rref` or
`binforms.linalg.echelon_extend` (as the elimination-count tests do) sees every
call made that way; the bench tracer rebinds `rref` alone, so it does not see
down-rung work.  A module that imported an entry point or one of the kernels by
name would hold its own reference and run unseen."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "binforms"
KERNELS = {"rref", "echelon_extend", "_rref_fp", "_rref_q"}


def _imported_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "linalg":
            yield from (alias.name for alias in node.names)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py"), ids=lambda p: p.name
)
def test_no_module_but_linalg_imports_rref_by_name(path):
    names = set(_imported_names(ast.parse(path.read_text(encoding="utf-8"))))
    assert not names & KERNELS, f"{path.name} imports {sorted(names & KERNELS)} from linalg"


def _q_representation_reads(tree: ast.AST):
    """`_ints` named as an attribute or a string, and `__new__` calls: the ways around
    `Matrix`'s constructor and its `ints` property."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("_ints", "__new__"):
            yield node.attr
        elif isinstance(node, ast.Constant) and node.value == "_ints":
            yield repr(node.value)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py"), ids=lambda p: p.name
)
def test_no_module_but_linalg_reads_integer_rows_behind_matrix(path):
    """Over Q a Matrix may hold only its integer rows; `linalg` alone reads them (`_ints`) or
    builds a Matrix without its constructor (`object.__new__`), so the representation stays in
    one module and every other module uses `ints`, `rows` and `from_ints`."""
    found = sorted(set(_q_representation_reads(ast.parse(path.read_text(encoding="utf-8")))))
    assert not found, f"{path.name} reads {found}"


def _calls_by_function(tree: ast.AST, name: str, scope: str = "<module>"):
    """(innermost enclosing function, call) for each call of `name`, bare or as an attribute."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                yield scope
        yield from _calls_by_function(node, name, inner)


def _callers(name: str) -> set[tuple[str, str]]:
    return {
        (path.stem, fn)
        for path in SRC.glob("*.py")
        for fn in _calls_by_function(ast.parse(path.read_text(encoding="utf-8")), name)
    }


def test_an_ideal_is_validated_where_it_enters():
    """Only `ideals` builds a GradedIdeal itself, and the validating `graded_ideal` runs on the
    one ideal that enters from outside the constructions: a JSON ideal.  Every other ideal,
    `build_h`'s glued one too, is closed under R_1 by construction and goes through `_assemble_ideal`."""
    assert {module for module, _ in _callers("GradedIdeal")} == {"ideals"}
    assert _callers("graded_ideal") == {("ideals", "ideal_from_json")}


def test_only_oseq_builds_an_osequence():
    """`oseq` normalizes every sequence it builds, which `OSequence.stabilization` relies on."""
    assert _callers("OSequence") == {("osequence", "oseq")}


def _dict_reads(tree: ast.AST):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "__dict__"]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "spaces.py"), ids=lambda p: p.name
)
def test_only_spaces_touches_the_memos_of_a_space(path):
    """A FormSpace's memos (`_up`, `_down`, `_principal`, `_kernel`, `_echelon`) live in its `__dict__`: only
    `spaces` reads or sets them there, so the memo protocol stays in one module."""
    assert not _dict_reads(ast.parse(path.read_text(encoding="utf-8"))), f"{path.name} touches __dict__"

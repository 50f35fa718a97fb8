"""Fuzz of `cli.main` in-process, every subcommand.

Inputs are malformed JSON in each format the README documents (space, dual
space, ideal), primes just below and just above the 3.3e24 primality bound,
rationals of height 2^256, and d in {0, 1, j, j+1} with j in {0, 1}.  Every
example must exit 0 or 1, never 2 (an internal error), and finish within
DEADLINE_S; a refusal is empty stdout and one JSON line on stderr.
"""

import io
import json
import random
import re
import signal
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from binforms.cli import _build_parser, main
from binforms.fields import _MR_EXACT_BELOW, QQ
from binforms.spaces import space_from_json
from binforms.waring import Unsplit, dual_from_json, gad

DEADLINE_S = 5.0
PRIME_BELOW = sympy.prevprime(_MR_EXACT_BELOW)
PRIME_ABOVE = sympy.nextprime(_MR_EXACT_BELOW)
HEIGHT = 2**256


class Overran(BaseException):
    """Raised by the deadline alarm; not an Exception, so `main` cannot
    report it as an internal error."""


def _run(argv, stdin=""):
    def alarm(signum, frame):
        raise Overran(f"{argv} ran past {DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        sys.stdin = saved_stdin
    return rc, out.getvalue(), err.getvalue()


def _check(argv, stdin=""):
    rc, out, err = _run(argv, stdin)
    assert rc in (0, 1), (argv, stdin[:300], err)
    if rc == 1 and argv[0] != "verify":  # verify exits 1 when a criterion fails
        assert out == "" and err.count("\n") == 1, (argv, out, err)
        assert json.loads(err)["error"] == "precondition"


# ----- scalars, fields, JSON values ---------------------------------------------

big = st.integers(HEIGHT // 2, HEIGHT)
scalars = st.one_of(
    st.integers(-3, 3).map(str),
    st.tuples(big, big, st.sampled_from(["", "-"])).map(lambda t: f"{t[2]}{t[0]}/{t[1]}"),
    st.sampled_from(["1/0", "x", "", " ", "1.5", "-2.5e-3", "1e5", "1e999999", "1e-999999",
                     "nan", "inf", "1/2/3", "0x10", "1" * 5000, "7" * 4000 + "e400"]),
    st.integers(-HEIGHT, HEIGHT),  # bare JSON numbers are read through str()
    st.sampled_from([None, True, 1.5, 1e308, [], {}]),
)
field_names = st.sampled_from(["Q", "Fp:101", "Fp:7", f"Fp:{PRIME_BELOW}", f"Fp:{PRIME_ABOVE}",
                               "Fp:100", "Fp:x", "Fp:", "F7", "", 101, None, ["Q"]])
junk = st.one_of(
    st.sampled_from([None, True, -1, 2.5, 1e400, 10**30, "a", "", [], {}, [1], {"a": 1}]),
    st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=5),
                 lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
                 max_leaves=6),
)
edge_j = st.sampled_from([0, 1])


@st.composite
def dims_dj(draw):
    j = draw(edge_j)
    return draw(st.sampled_from([0, 1, j, j + 1])), j


def _form(degree, coeffs):
    return {"degree": degree, "coeffs": coeffs}


@st.composite
def space_json(draw):
    """A space (or dual space) of dimension d in degree j over a drawn field,
    then perhaps one form and at most two top-level parts broken."""
    d, j = draw(dims_dj())
    obj = {"field": draw(field_names), "degree": j,
           "basis": [_form(j, draw(st.lists(scalars, min_size=j + 1, max_size=j + 1)))
                     for _ in range(d)]}
    if obj["basis"] and draw(st.booleans()):
        form = draw(st.sampled_from(obj["basis"]))
        key = draw(st.sampled_from(["degree", "coeffs", "drop", "negative"]))
        if key == "drop":
            del form[draw(st.sampled_from(sorted(form)))]
        elif key == "negative":
            form.update(_form(-1, []))
        else:
            form[key] = draw(junk)
    for _ in range(draw(st.integers(0, 2))):
        part = draw(st.sampled_from(["field", "degree", "basis", "drop"]))
        if part != "drop":
            obj[part] = draw(junk)
        elif obj:
            del obj[draw(st.sampled_from(sorted(obj)))]
    return obj


README_IDEAL = {"field": "Fp:101", "window": [1, 1],
                "components": {"1": {"field": "Fp:101", "degree": 1,
                                     "basis": [{"degree": 1, "coeffs": ["1", "0"]}]}},
                "tailGcd": {"degree": 1, "coeffs": ["1", "0"]}}


@st.composite
def ideal_json(draw):
    """The README's ideal (x), over a drawn field and with drawn scalars,
    then at most two of its parts replaced by junk."""
    field = draw(field_names)
    comp = draw(space_json())
    obj = {"field": field, "window": [1, 1],
           "components": {"1": {"field": field, "degree": 1,
                                "basis": [_form(1, [draw(scalars), draw(scalars)])]}},
           "tailGcd": _form(1, [draw(scalars), draw(scalars)])}
    if draw(st.booleans()):
        obj = json.loads(json.dumps(README_IDEAL))
    for _ in range(draw(st.integers(0, 2))):
        part = draw(st.sampled_from(["field", "window", "components", "tailGcd", "component", "drop"]))
        if part == "component":
            obj["components"] = {draw(st.sampled_from(["0", "1", "2", "x"])): comp}
        elif part == "drop":
            if obj:
                del obj[draw(st.sampled_from(sorted(obj)))]
        else:
            obj[part] = draw(st.one_of(junk, st.lists(st.integers(-2, 3), min_size=2, max_size=2)))
    return obj


@st.composite
def json_text(draw, documents):
    """A document as JSON text, sometimes cut short, or text that is not JSON."""
    text = json.dumps(draw(documents))
    how = draw(st.sampled_from(["whole", "whole", "whole", "cut", "other"]))
    if how == "cut":
        return text[: draw(st.integers(0, max(len(text) - 1, 0)))]
    if how == "other":
        return draw(st.sampled_from(["", "{", "[]", "null", "1", '"x"', "[" * 100_000, "﻿{}",
                                     "1" * 5000, '{"field": "Q", "degree": 1e400}', "NaN"]))
    return text


h_strings = st.one_of(
    st.sampled_from(["1(0)", "(0)", "1,1(0)", "1,2,1(0)", "1,2(1)", "1,2,3(9)", "", "1",
                     "0(0)", "-1(0)", "1,,2(0)", "1(", "1,2)", "x", "1,2(1)(0)", "1e9(0)"]),
    st.lists(st.integers(-1, 4), max_size=5).map(lambda xs: ",".join(map(str, xs)) + "(0)"),
)


def _opt(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def _argv(*parts):
    """One argv from strategies of argv pieces, joined in order."""
    return st.tuples(*parts).map(lambda t: sum(t, []))


@st.composite
def with_dj(draw, name):
    d, j = draw(dims_dj())
    return [name, "--d", str(d), "--j", str(j)]


field_opt = _opt("--field", field_names.filter(lambda f: isinstance(f, str)))
json_flag = st.sampled_from([[], ["--json"]])
no_stdin = st.just("")

ARGV = {
    name: st.tuples(_argv(st.just([name, "-"]), field_opt, json_flag), json_text(space_json()))
    for name in ("analyze", "related", "waring")
}
ARGV.update({
    "build": st.tuples(
        _argv(st.just(["build", "--from", "-"]), h_strings.map(lambda h: ["--target-H", h]),
              st.sampled_from([["--j", "0"], ["--j", "1"], ["--j", "2"]]), json_flag),
        json_text(ideal_json())),
    "enumerate": st.tuples(
        _argv(with_dj("enumerate"), st.sampled_from([[], ["--all"]]), _opt("--tau", st.integers(0, 3)),
              _opt("--c", st.integers(0, 3)), json_flag),
        no_stdin),
    "dims": st.tuples(_argv(with_dj("dims"), h_strings.map(lambda h: ["--H", h]), json_flag), no_stdin),
    "hasse": st.tuples(_argv(with_dj("hasse"), st.sampled_from([[], ["--json"], ["--dot"]])), no_stdin),
    "random": st.tuples(
        _argv(with_dj("random"), st.integers(-HEIGHT, HEIGHT).map(lambda s: ["--seed", str(s)]),
              field_opt, json_flag),
        no_stdin),
})


@pytest.mark.parametrize("name", sorted(ARGV))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fuzzed_input_exits_0_or_1_in_time(name, data):
    argv, stdin = data.draw(ARGV[name])
    _check(argv, stdin)


# verify reads only --max-j and --json: its inputs are listed, not drawn
@pytest.mark.parametrize("argv", [["verify", "--max-j", "0"], ["verify", "--max-j", "1", "--json"]])
def test_verify_at_the_smallest_bounds_exits_0_or_1_in_time(argv):
    _check(argv)


def test_fuzz_covers_every_subcommand():
    parser = _build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    assert set(sub.choices) == set(ARGV) | {"verify"}


def _space_doc(at):
    """A space over Q with "@" at one of its numbers."""
    doc = {"field": "Q", "degree": 1, "basis": [_form(1, [1, 1])]}
    parent, key = {"degree": (doc, "degree"), "form-degree": (doc["basis"][0], "degree"),
                   "coefficient": (doc["basis"][0]["coeffs"], 0)}[at]
    parent[key] = "@"
    return doc


def _ideal_doc(at):
    """The README's ideal with "@" at one of its numbers."""
    doc = json.loads(json.dumps(README_IDEAL))
    parent, key = {"window-lo": (doc["window"], 0), "window-hi": (doc["window"], 1),
                   "tail-degree": (doc["tailGcd"], "degree")}[at]
    parent[key] = "@"
    return doc


@pytest.mark.parametrize("number", ["1e1000000", "1e-1000000", "1" * 5001 + ".5"],
                         ids=["exponent-1e6", "exponent-minus-1e6", "5001-digits"])
def test_json_numbers_beyond_the_size_rule_are_refused_in_time(number):
    """A bare JSON number is read as its exact Decimal, so one beyond 4300 digits or an
    exponent beyond 4300 is refused before it is expanded, as a degree, a window bound
    or a coefficient."""
    runs = [([name, "-"], _space_doc(at)) for name in ("analyze", "related", "waring")
            for at in ("degree", "form-degree", "coefficient")]
    runs += [(["build", "--from", "-", "--target-H", "1(0)", "--j", "1"], _ideal_doc(at))
             for at in ("window-lo", "window-hi", "tail-degree")]
    for argv, doc in runs:
        rc, out, err = _run(argv, json.dumps(doc).replace('"@"', number))
        assert rc == 1 and out == "" and json.loads(err)["error"] == "precondition", (argv, doc)


@pytest.mark.parametrize("content", [b"\xff\xfe{", b"[" * 100_000, b"1" * 5000, None],
                         ids=["bad-utf8", "deep-nesting", "long-int", "directory"])
def test_unreadable_input_file_is_refused(tmp_path, content):
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    for name in ("analyze", "related", "waring"):
        rc, out, err = _run([name, str(path)])
        assert rc == 1 and out == "" and json.loads(err)["error"] == "precondition"
    rc, out, err = _run(["build", "--from", str(path), "--target-H", "1(0)", "--j", "1"])
    assert rc == 1 and json.loads(err)["error"] == "precondition"


# ----- results past the int-to-str digit limit ----------------------------------


def _read_back(text):
    """A printed scalar, read through Decimal: int() refuses text past 4300 digits."""
    num, _, den = text.partition("/")
    return Fraction(Decimal(num)) / Fraction(Decimal(den or "1"))


def _read_form(text, degree):
    """The coefficients of a dual form as `format_form` prints it, each read back."""
    coeffs = [Fraction(0)] * (degree + 1)
    term = re.compile(r"(-|[+-] )?([\d/]*)(?:X(?:\^\d+)?)?(Y(?:\^\d+)?)?")
    for text in re.split(r" (?=[+-] )", text):
        sign, scalar, y_power = term.fullmatch(text).groups()
        value = _read_back(scalar or "1")
        coeffs[int(y_power[2:] or 1) if y_power else 0] = -value if sign and "-" in sign else value
    return coeffs


def _q_doc(seed, rows, degree, digits):
    """A space over Q whose coefficients are random integers of `digits` digits."""
    rng = random.Random(seed)
    big = lambda: str(rng.choice((1, -1)) * rng.randrange(10 ** (digits - 1), 10**digits))
    return {"field": "Q", "degree": degree,
            "basis": [_form(degree, [big() for _ in range(degree + 1)]) for _ in range(rows)]}


def test_waring_prints_a_factor_past_the_digit_limit():
    # 2,501-digit coefficients obey the input rule; the apolar quadratic's
    # coefficients have about 5,000 digits, and it has roots mod 3 to lift
    doc = _q_doc("waring|2501 digits|2", 1, 3, 2501)
    rc, out, err = _run(["waring", "-", "--json"], json.dumps(doc))
    assert rc == 0, err
    res = gad(dual_from_json(doc))
    assert isinstance(res, Unsplit) and max(abs(c.numerator) for c in res.form.coeffs) > 10**4300
    assert _read_form(json.loads(out)["unsplit"], 2) == list(res.form.coeffs)


def test_analyze_prints_a_space_past_the_digit_limit():
    # the RREF entries of three rows of 2,001-digit integers are ratios of
    # 3 x 3 minors, about 6,000 digits each
    doc = _q_doc("analyze|2001 digits", 3, 6, 2001)
    rc, out, err = _run(["analyze", "-", "--json"], json.dumps(doc))
    assert rc == 0, err
    basis = space_from_json(doc, QQ).basis_forms()
    assert max(abs(c.denominator) for f in basis for c in f.coeffs) > 10**4300
    got = [[_read_back(c) for c in f["coeffs"]] for f in json.loads(out)["space"]["basis"]]
    assert got == [list(f.coeffs) for f in basis]

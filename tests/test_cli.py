import argparse
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from binforms.cli import _build_parser, main
from binforms.fields import GF, QQ
from binforms.forms import form, format_form, monomial
from binforms.hilbert import realize_staircase
from binforms.ideals import ideal_from_json, ideal_to_json
from binforms.osequence import oseq
from binforms.spaces import space_to_json, span
from binforms.waring import dual_space, dual_to_json


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _space_file(tmp_path, name, V):
    path = tmp_path / name
    path.write_text(json.dumps(space_to_json(V)))
    return str(path)


def test_analyze_worked_example(tmp_path):
    F = QQ
    V = span(F, 4, [monomial(F, 4, 0), monomial(F, 3, 1), monomial(F, 0, 4)])
    path = _space_file(tmp_path, "V.json", V)
    rc, out, _ = _run(["analyze", path])
    assert rc == 0
    assert "H(R/ancestor) = 1,2,3,3,2,1(0)" in out
    assert "tau = 2" in out
    assert "generator degrees = (3, 4)" in out

    rc, out, _ = _run(["analyze", path, "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["H"] == "1,2,3,3,2,1(0)"
    assert data["tau"] == 2
    assert data["generatorDegrees"] == [3, 4]


def test_enumerate_table_and_all():
    rc, out, _ = _run(["enumerate", "--d", "4", "--j", "5"])
    assert rc == 0
    assert "4 sequences (table mode)" in out
    assert "1,2,3,4,4,2(0)" in out

    rc, out, _ = _run(["enumerate", "--d", "4", "--j", "5", "--all", "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["count"] == 6
    cods = [row["cod"] for row in data["rows"]]
    assert sorted(cods) == [0, 2, 3, 3, 4, 6]


def test_enumerate_filters():
    rc, out, _ = _run(["enumerate", "--d", "4", "--j", "5", "--tau", "2", "--c", "0", "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert all(row["tau"] == 2 and row["c"] == 0 for row in data["rows"])


def test_dims_report_with_discrepancies():
    rc, out, _ = _run(["dims", "--H", "1,2,3,4,3,2,1(1)", "--d", "4", "--j", "5", "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["dim"] == 5 and data["cod"] == 3
    assert data["formulas"]["codd"] == 3
    keys = {s.split(":", 1)[0] for s in data["discrepancies"]}
    assert {"coda", "codc"} <= keys

    rc, out, _ = _run(["dims", "--H", "1,2,3,4,3,2,1(0)", "--d", "4", "--j", "5"])
    assert rc == 0
    assert "discrepancy ledger: empty" in out


def test_hasse_dot():
    rc, out, _ = _run(["hasse", "--d", "4", "--j", "5", "--dot"])
    assert rc == 0
    assert out.startswith("digraph hasse {")
    assert out.count("->") == 6
    rc, out, _ = _run(["hasse", "--d", "4", "--j", "5", "--json"])
    data = json.loads(out)
    assert len(data["nodes"]) == 6 and len(data["edges"]) == 6


def test_build_roundtrip(tmp_path):
    _, source = realize_staircase(oseq([1], 2), 4, 5, GF(101))
    path = tmp_path / "I.json"
    path.write_text(json.dumps(ideal_to_json(source)))
    rc, out, _ = _run(
        ["build", "--from", str(path), "--target-H", "1,2,3,4,4,2(0)", "--j", "5", "--json"]
    )
    assert rc == 0
    data = json.loads(out)
    assert data["finalH"] == "1,2,3,4,4,2(0)"
    assert data["steps"]


def _readme_ideal_example() -> dict:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("**Ideal**"):]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


def test_build_from_readme_ideal_example(tmp_path):
    example = _readme_ideal_example()
    assert ideal_to_json(ideal_from_json(example)) == example
    path = tmp_path / "I.json"
    path.write_text(json.dumps(example))
    rc, out, err = _run(
        ["build", "--from", str(path), "--target-H", "1,2,1(0)", "--j", "2", "--json"]
    )
    assert rc == 0, err
    data = json.loads(out)
    assert data["finalH"] == "1,2,1(0)"
    # the emitted ideal is valid input again
    assert ideal_to_json(ideal_from_json(data["ideal"])) == data["ideal"]


def _space_json(field: str, degree: int, *rows) -> dict:
    return {"field": field, "degree": degree,
            "basis": [{"degree": degree, "coeffs": list(r)} for r in rows]}


@pytest.mark.parametrize(
    "mangle",
    [
        # the list-of-components shape with "tail_gcd" that older docs described
        lambda d: {**d, "components": list(d["components"].values()), "tail_gcd": d["tailGcd"]},
        lambda d: {k: v for k, v in d.items() if k != "field"},
        lambda d: {**d, "field": 101},
        lambda d: {**d, "window": [1]},
        lambda d: {**d, "window": "1..1"},
        lambda d: {**d, "window": [1, 2]},
        lambda d: {**d, "components": {"1": {"degree": "one", "basis": []}}},
        lambda d: {**d, "tailGcd": {"degree": 1}},
        lambda d: {**d, "tailGcd": None},
        lambda d: [d],
        # well-formed, but not an ideal: only the validation in ideal_from_json
        # refuses these, since build_h turns each into a valid ideal
        lambda d: {**d, "window": [1, 2], "components": {**d["components"], "2": _space_json(
            d["field"], 2, ["1", "0", "0"], ["0", "0", "1"])}},  # R_1<x> is not in <x^2, y^2>
        lambda d: {**d, "tailGcd": {"degree": 1, "coeffs": ["0", "1"]}},  # R_1<x> is not in (y)
    ],
    ids=[
        "list-components", "no-field", "field-not-a-name", "short-window",
        "window-not-a-list", "missing-component", "bad-degree", "bad-tail-form",
        "no-tail", "not-an-object", "unclosed-component", "top-escapes-tail",
    ],
)
def test_malformed_ideal_exits_1(tmp_path, mangle):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mangle(_readme_ideal_example())))
    rc, out, err = _run(["build", "--from", str(path), "--target-H", "1,2,1(0)", "--j", "2"])
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "precondition"


def test_waring_split_and_unsplit(tmp_path):
    W = dual_space(GF(7), 3, [form(GF(7), 3, [0, 1, -1, 0])])
    path = tmp_path / "W.json"
    path.write_text(json.dumps(dual_to_json(W)))
    rc, out, _ = _run(["waring", str(path), "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["tauDelta"] == 2 and data["mu"] == 2
    assert data["gad"]["forms"] == ["X + 2Y", "X + 4Y"]
    assert data["gad"]["weights"] == [1, 1]

    Wq = dual_space(QQ, 3, [form(QQ, 3, [0, 1, -1, 0])])
    path2 = tmp_path / "Wq.json"
    path2.write_text(json.dumps(dual_to_json(Wq)))
    rc, out, _ = _run(["waring", str(path2), "--json"])
    assert rc == 0
    data = json.loads(out)
    assert "unsplit" in data and "gad" not in data


def test_waring_reads_mu_from_the_decomposition(tmp_path, monkeypatch):
    # a GAD's length is mu, certified inside gad; only Unsplit asks mu(W)
    import binforms.cli as cli

    calls = []
    real_mu = cli.mu
    monkeypatch.setattr(cli, "mu", lambda W: calls.append(W) or real_mu(W))
    for field, want_calls in ((GF(7), 0), (QQ, 1)):
        W = dual_space(field, 3, [form(field, 3, [0, 1, -1, 0])])
        path = tmp_path / f"W{field.p}.json"
        path.write_text(json.dumps(dual_to_json(W)))
        rc, out, _ = _run(["waring", str(path)])
        assert rc == 0
        assert out.startswith("tau_delta = 2   mu = 2\n")
        assert len(calls) == want_calls
        calls.clear()


def test_related_class_list(tmp_path):
    F = QQ
    V = span(F, 4, [monomial(F, 4, 0), monomial(F, 3, 1), monomial(F, 0, 4)])
    path = _space_file(tmp_path, "V.json", V)
    rc, out, _ = _run(["related", path, "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert [c["generatorDegrees"] for c in data["classes"]] == [[3, 4], [3], [0]]


def test_random_is_deterministic():
    rc1, out1, _ = _run(["random", "--d", "3", "--j", "6", "--seed", "11", "--json"])
    rc2, out2, _ = _run(["random", "--d", "3", "--j", "6", "--seed", "11", "--json"])
    rc3, out3, _ = _run(["random", "--d", "3", "--j", "6", "--seed", "12", "--json"])
    assert rc1 == rc2 == rc3 == 0
    assert out1 == out2
    assert out1 != out3


def test_precondition_errors_exit_1():
    rc, _, err = _run(["analyze", "/nonexistent/space.json"])
    assert rc == 1
    payload = json.loads(err)
    assert payload["error"] == "precondition"

    rc, _, err = _run(["dims", "--H", "1,2,3(0)", "--d", "4", "--j", "5"])
    assert rc == 1
    assert json.loads(err)["error"] == "precondition"

    rc, _, err = _run(["random", "--d", "3", "--j", "6", "--seed", "1", "--field", "F99"])
    assert rc == 1
    assert json.loads(err)["error"] == "precondition"


def _refused(argv, named):
    # one refusal path: exit 1, nothing on stdout, one JSON line naming the cause
    rc, out, err = _run(argv)
    assert rc == 1 and out == "", (argv, rc, out)
    assert err.count("\n") == 1, err
    payload = json.loads(err)
    assert payload["error"] == "precondition"
    assert named in payload["message"], (named, payload)
    return payload


def test_unknown_command_is_usage_error():
    _refused(["frobnicate"], "frobnicate")


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--d", "2", "--j", "3"],
        ["dims", "--H", "1,2,1(0)", "--d", "2", "--j", "2"],
        ["hasse", "--d", "2", "--j", "3"],
        ["build", "--from", "I.json", "--target-H", "1,2,1(0)", "--j", "2"],
        ["verify", "--max-j", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_field_is_refused_where_it_is_not_read(argv):
    # these subcommands never read --field; accepting it would run them over
    # another field than asked (build takes its field from the ideal JSON)
    _refused(argv + ["--field", "Fp:7"], "--field")


# one well-formed command line per subcommand; no file is read before a refusal
VALID = {
    "analyze": ["analyze", "V.json"],
    "enumerate": ["enumerate", "--d", "2", "--j", "3"],
    "dims": ["dims", "--H", "1,2,1(0)", "--d", "2", "--j", "2"],
    "hasse": ["hasse", "--d", "2", "--j", "3"],
    "build": ["build", "--from", "I.json", "--target-H", "1,2,1(0)", "--j", "2"],
    "waring": ["waring", "W.json"],
    "related": ["related", "V.json"],
    "random": ["random", "--d", "2", "--j", "3", "--seed", "1"],
    "verify": ["verify", "--max-j", "1"],
}


def _without(name, option):
    argv = VALID[name]
    k = argv.index(option)
    return argv[:k] + argv[k + 2:]


def _with(name, option, value):
    argv = _without(name, option) if option in VALID[name] else VALID[name]
    return argv + [option, value]


def _refusal_table():
    cases = [(f"{name}-no-path", [name], "path") for name in ("analyze", "waring", "related")]
    cases += [("dims-no-H", _without("dims", "--H"), "--H"),
              ("build-no-from", _without("build", "--from"), "--from"),
              ("build-no-target", _without("build", "--target-H"), "--target-H"),
              ("build-no-j", _without("build", "--j"), "--j"),
              ("random-no-seed", _without("random", "--seed"), "--seed")]
    for name in ("enumerate", "dims", "hasse", "random"):
        cases += [(f"{name}-no-{o[2:]}", _without(name, o), o) for o in ("--d", "--j")]
        cases += [(f"{name}-d-abc", _with(name, "--d", "abc"), "--d"),
                  (f"{name}-d-0", _with(name, "--d", "0"), "--d"),
                  (f"{name}-j-neg", _with(name, "--j", "-1"), "--j")]
    cases += [("build-j-abc", _with("build", "--j", "abc"), "--j"),
              ("build-j-neg", _with("build", "--j", "-1"), "--j"),
              ("enumerate-tau-neg", _with("enumerate", "--tau", "-1"), "--tau"),
              ("enumerate-c-neg", _with("enumerate", "--c", "-1"), "--c"),
              ("verify-max-j-neg", _with("verify", "--max-j", "-1"), "--max-j"),
              ("verify-max-j-abc", _with("verify", "--max-j", "x"), "--max-j"),
              ("random-seed-abc", _with("random", "--seed", "x"), "--seed")]
    for name in VALID:
        cases.append((f"{name}-unknown-option", VALID[name] + ["--frobnicate"], "--frobnicate"))
        if name != "hasse":
            cases.append((f"{name}-dot", VALID[name] + ["--dot"], "--dot"))
    return cases + [("no-command", [], "command")]


REFUSALS = _refusal_table()


@pytest.mark.parametrize("argv,named", [c[1:] for c in REFUSALS], ids=[c[0] for c in REFUSALS])
def test_every_refusal_exits_1_with_json(argv, named):
    _refused(argv, named)


def test_refusal_table_covers_every_subcommand():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(VALID) == set(sub.choices)
    assert set(VALID) <= {argv[0] for _, argv, _ in REFUSALS if argv}


def test_bad_field_keeps_the_library_message():
    payload = _refused(_with("random", "--field", "F99"), "--field")
    assert payload["message"].endswith("unknown field 'F99'; expected 'Q' or 'Fp:<prime>'")
    payload = _refused(_with("random", "--field", "Fp:10"), "--field")
    assert payload["message"].endswith("field modulus must be prime, got 10")


@pytest.mark.parametrize("argv", [["--help"], ["enumerate", "--help"], ["hasse", "-h"]])
def test_help_exits_0(argv):
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert exc.value.code == 0


def test_field_is_read_where_it_is_accepted(tmp_path):
    V = span(GF(7), 3, [monomial(GF(7), 3, 0), monomial(GF(7), 0, 3)])
    path = _space_file(tmp_path, "V.json", V)
    W = tmp_path / "W.json"
    W.write_text(json.dumps(dual_to_json(dual_space(GF(7), 3, [form(GF(7), 3, [0, 1, -1, 0])]))))
    for argv in (["analyze", path], ["related", path], ["waring", str(W)]):
        rc, _, err = _run(argv + ["--field", "Q", "--json"])
        assert rc == 0, (argv, err)
    rc, out, _ = _run(["random", "--d", "2", "--j", "3", "--seed", "1", "--field", "Q", "--json"])
    assert rc == 0 and json.loads(out)["space"]["field"] == "Q"


def test_verify_smoke_quick():
    rc, out, _ = _run(["verify", "--max-j", "1"])
    assert rc == 0
    lines = [l for l in out.splitlines() if l.startswith("ACCEPTANCE")]
    assert len(lines) == 11
    assert all("PASS" in l for l in lines)
    assert out.strip().endswith("all criteria passed")

    rc, out, _ = _run(["verify", "--max-j", "1", "--json"])
    assert rc == 0
    rows = json.loads(out)
    assert [r["number"] for r in rows] == list(range(1, 12))
    for r in rows:
        assert r["passed"] and r["failures"] == []
        assert isinstance(r["elapsed"], float) and 0 <= r["elapsed"] <= r["bound"]


@pytest.mark.parametrize("name", ["hasse-text", "hasse-dot", "hasse-json"])
def test_hasse_enumerates_once(monkeypatch, name):
    import binforms.cli as cli
    import binforms.hilbert as hilbert
    from test_golden_cli import CASES, GOLDEN, run_case

    calls = []
    real = hilbert.enumerate_acceptable

    def counting(d, j):
        calls.append((d, j))
        return real(d, j)

    monkeypatch.setattr(cli, "enumerate_acceptable", counting)
    monkeypatch.setattr(hilbert, "enumerate_acceptable", counting)
    rc, stdout = run_case(next(c["argv"] for c in CASES if c["name"] == name))
    assert rc == 0 and len(calls) == 1
    assert stdout == (GOLDEN / "stdout" / f"{name}.txt").read_bytes()


@pytest.mark.parametrize(
    "name", ["space_q_random", "space_f101_random", "space_q_principal", "space_f101_principal"]
)
def test_analysis_reads_gcd_off_the_ancestor_ideal(monkeypatch, name):
    # the tail gcd of ancestor_ideal(V) is gcd(V), monic: no gcd chain runs
    import binforms.cli as cli
    import binforms.spaces as spaces

    path = Path(__file__).resolve().parent / "golden" / "inputs" / f"{name}.json"
    V = spaces.space_from_json(json.loads(path.read_text()))
    want = cli._analysis(V)
    assert want["gcd"] == format_form(spaces.gcd_of_space(V))

    def no_gcd_chain(*args):
        raise AssertionError("analysis ran gcd_of_space")

    monkeypatch.setattr(cli, "gcd_of_space", no_gcd_chain, raising=False)
    monkeypatch.setattr(spaces, "gcd_of_space", no_gcd_chain)
    assert cli._analysis(V) == want
    if "principal" in name:
        assert want["gcd"] != "1"

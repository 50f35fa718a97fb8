import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from binforms.cli import main
from binforms.fields import GF, QQ
from binforms.forms import form, monomial
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
    ],
    ids=[
        "list-components", "no-field", "field-not-a-name", "short-window",
        "window-not-a-list", "missing-component", "bad-degree", "bad-tail-form",
        "no-tail", "not-an-object",
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


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        _run(["frobnicate"])
    assert exc.value.code == 2


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

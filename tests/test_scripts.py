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


def test_q_height_table_prints_one_row_per_cell():
    proc = _run_script("q_height_table.py", "--shapes", "2,4", "--heights", "2^3", "--cap", "30")
    assert proc.returncode == 0, proc.stderr
    header, rule, *rows = proc.stdout.splitlines()
    assert header == "| d | j | h | seed | dim | span | related | analyze | gcd_of_space |"
    assert rule == "|---" * 9 + "|" and len(rows) == 1
    cells = rows[0].strip("| ").split(" | ")
    assert cells[:5] == ["2", "4", "2^3", "0", "2"] and all(c.endswith(" s") and ">" not in c for c in cells[5:])


def _result(ops_per_s, p50_ms, failed=0):
    metrics = {"ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
               "op_p50_ms": {"value": p50_ms, "unit": "ms"}}
    return {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics}


def test_bench_pairs_summarizes_canned_records_and_launches_nothing(monkeypatch):
    import importlib.util

    def refuse(*args, **kwargs):
        raise AssertionError(f"launched {args[0] if args else kwargs}")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    parent = [(100, 2.0), (110, 2.0), (120, 2.0), (130, 2.0), (140, 2.0)]
    change = [(105, 1.0), (120, 3.0), (125, 2.0), (150, 3.0), (160, 4.0)]
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), start=11):
        sides = [("parent", _result(*p)), ("change", _result(*c, failed=int(seed == 12)))]
        for side, result in sides if seed % 2 else sides[::-1]:
            runs.append({"seed": seed, "side": side, "workload": "analyze-fp", "result": result})
    end_to_end = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
                  {"name": "op_p50_ms", "better": "lower", "bound": 0.25}]
    s = bench.summarize(runs, end_to_end)["analyze-fp"]
    assert (s["pairs"], s["seeds"]) == (5, [11, 15])
    assert s["failed_ops"] == {"parent": 0, "change": 1}
    assert s["correct"] == {"parent": True, "change": False}
    ops = s["ops_per_s"]  # inclusive quartiles of five values: the 2nd, 3rd and 4th
    assert ops["parent"] == {"q1": 110, "median": 120, "q3": 130}
    assert ops["change"] == {"q1": 120, "median": 125, "q3": 150}
    assert ops["ratio_change_over_parent"] == pytest.approx(125 / 120)
    # per-seed ratios 105/100, 120/110, 125/120, 150/130, 160/140: the median is the 2nd largest
    assert ops["median_pair_ratio"] == pytest.approx(120 / 110)
    assert (ops["change_wins"], ops["parent_iqr"], ops["worse_by"]) == (5, 20, 0.0)
    p50 = s["op_p50_ms"]  # lower is better: 1 win, 3 losses and a tie, which counts for neither
    assert p50["change"] == {"q1": 2.0, "median": 3.0, "q3": 3.0}
    assert p50["change_wins"] == 1 and p50["worse_by"] == pytest.approx(0.5)
    assert p50["median_pair_ratio"] == pytest.approx(1.5)  # of 0.5, 1.5, 1, 1.5, 2
    assert (p50["bound"], p50["better"]) == (0.25, "lower")
    with pytest.raises(ValueError, match="without both sides"):
        bench.summarize(runs[:-1], end_to_end)
    assert bench.seed_range("2101-2110") == list(range(2101, 2111))

"""Paired benchmark runs: a parent revision against the working tree.

    python3 scripts/bench_pairs.py --parent HEAD --seeds 2101-2110 --name my-change
    python3 scripts/bench_pairs.py --parent HEAD~1 --workloads analyze-fp,strata \
        --seeds 2101-2110 --name my-change

Copies the parent revision (`git archive`) and the working tree (tracked files
and the untracked ones .gitignore keeps) into two fresh directories and byte-
compiles both, so `setup_s` here leaves out the compile cost that a checkout
without bytecode (PYTHONDONTWRITEBYTECODE set; the header records its value)
pays on every launch: a `perfbench/worker.py --setup-only` launch took 0.101 s
without bytecode and 0.072 s with it (median of 9, Python 3.11.7, 2 vCPUs).
Both sides are compiled alike, so the ratios compare like with like, but a
`setup_s` here is lower than one read in a fresh checkout.  Then, workload by
workload, it runs `perfbench/run.py --trace 0` on both copies for every seed of
the range, the side that runs first alternating (parent first on odd seeds);
one more pair on seed 0 (change first), whose ops the worker checks against
perfbench/digests.json; and one `--trace 1` run per side on seed 0.  The run
length is BENCHMARK.json's `run_seconds`.

Writes BENCH_<name>.json at the root of the working tree: every run's result
line, and, per workload and end-to-end metric of BENCHMARK.json, each side's
quartiles over the seed range (statistics.quantiles(n=4, method='inclusive')),
the ratio of the medians (change over parent), the median of the per-seed
ratios (a host burst that slows both runs of a pair cancels in it), the pairs
the change won (ties count for neither side), the parent's interquartile range,
and how much worse the change's median is than the parent's (0 when it is not
worse).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload, the summary of its seeded pairs: `runs` holds
    {"seed", "side", "workload", "result"} records, `end_to_end` the metric
    entries of BENCHMARK.json (name, better, bound)."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_seed: dict[int, dict] = {}
        for r in mine:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
        if any(set(sides) != set(SIDES) for sides in by_seed.values()):
            raise ValueError(f"{workload}: a seed without both sides")
        seeds = sorted(by_seed)
        summary = {
            "pairs": len(seeds),
            "seeds": [seeds[0], seeds[-1]],
            "failed_ops": {s: sum(r["result"]["failed"] for r in mine if r["side"] == s) for s in SIDES},
            "correct": {s: all(r["result"]["correct"] for r in mine if r["side"] == s) for s in SIDES},
        }
        for metric in end_to_end:
            name, higher = metric["name"], metric["better"] == "higher"
            values = {s: [by_seed[seed][s]["metrics"][name]["value"] for seed in seeds] for s in SIDES}
            qs = {s: quartiles(values[s]) for s in SIDES}
            ratio = qs["change"]["median"] / qs["parent"]["median"]
            wins = sum(c > p if higher else c < p for p, c in zip(values["parent"], values["change"]))
            summary[name] = {
                **qs,
                "ratio_change_over_parent": ratio,
                "median_pair_ratio": statistics.median(c / p for p, c in zip(values["parent"], values["change"])),
                "change_wins": wins,
                "parent_iqr": qs["parent"]["q3"] - qs["parent"]["q1"],
                "worse_by": max(0.0, 1 - ratio if higher else ratio - 1),
                "bound": metric["bound"],
                "better": metric["better"],
            }
        out[workload] = summary
    return out


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True)


def copy_revision(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev).stdout)) as tar:
        tar.extractall(dest, filter="data")


def copy_worktree(dest: Path) -> None:
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").stdout
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_bench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench/run.py run in a copy of the tree; its result line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError("quartiles need a range of at least two seeds")
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--workloads", default=",".join(known), help="comma-separated (default: all)")
    ap.add_argument("--seeds", type=seed_range, required=True, help="first-last, e.g. 2101-2110")
    ap.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    if unknown := set(workloads) - set(known):
        ap.error(f"unknown workloads {sorted(unknown)}; BENCHMARK.json has {known}")
    seconds, seeds = spec["run_seconds"], args.seeds
    parent_commit = _git("rev-parse", args.parent).stdout.decode().strip()

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {s: Path(tmp) / s for s in SIDES}
        copy_revision(parent_commit, trees["parent"])
        copy_worktree(trees["change"])
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=tree, check=True)

        def run(side, workload, seed, trace=0):
            result = run_bench(trees[side], workload, seed, seconds, trace)
            print(f"{workload} seed {seed} trace {trace} {side}: "
                  + ", ".join(f"{k} {m['value']:.4g}" for k, m in list(result["metrics"].items())[:3]),
                  flush=True)
            return {"side": side, "workload": workload, "result": result}

        end_to_end, seed0_pairs, trace_seed0 = [], [], []
        for workload in workloads:
            for seed in seeds:
                for side in SIDES if seed % 2 else SIDES[::-1]:
                    end_to_end.append({"seed": seed, **run(side, workload, seed)})
            for side in SIDES[::-1]:
                seed0_pairs.append({"pair": 1, **run(side, workload, 0)})
            for side in SIDES[::-1]:
                trace_seed0.append(run(side, workload, 0, trace=1))

    listed = ", ".join(workloads)
    out = {
        "what": (
            f"perfbench/run.py --seconds {seconds} --trace 0 on the parent commit and on this change, "
            f"each from its own copy of the tree, made and run by scripts/bench_pairs.py. end_to_end: "
            f"{len(seeds)} pairs per workload on seeds {seeds[0]}-{seeds[-1]}, the side that runs first "
            f"alternating (parent first on odd seeds); quartiles by statistics.quantiles(n=4, "
            f"method='inclusive'). seed0_pairs: 1 pair per workload on seed 0 (change first), whose ops "
            f"are checked against perfbench/digests.json. trace_seed0: one --trace 1 run per side on "
            f"seed 0. Workloads: {listed}."
        ),
        "parent_commit": parent_commit,
        "compiled": True,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "summary": summarize(end_to_end, spec["end_to_end"]),
        "end_to_end": end_to_end,
        "seed0_pairs": seed0_pairs,
        "trace_seed0": trace_seed0,
    }
    path = ROOT / f"BENCH_{args.name}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    for workload, summary in out["summary"].items():
        print(workload, ", ".join(
            f"{k} x{v['ratio_change_over_parent']:.3f}, pairs x{v['median_pair_ratio']:.3f} "
            f"({v['change_wins']}/{summary['pairs']})"
            for k, v in summary.items() if isinstance(v, dict) and "ratio_change_over_parent" in v))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

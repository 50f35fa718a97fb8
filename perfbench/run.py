"""Benchmark harness for binforms: four exact-algebra workloads, one command.

    python3 perfbench/run.py --workload analyze-fp --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
Each workload runs in a fresh process as one closed-loop client: single
threaded, the next op starting when the previous one returns.  A run measures
the workload's whole op stream (10-20 s with the seed code), or stops once
`--seconds` of op time have passed.  The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 0` the metrics are the end-to-end ones:

    ops_per_s    ops/s  completed ops / time spent inside ops
    op_p50_ms    ms     median wall time per op (Harrell-Davis estimate)
    op_p90_ms    ms     90th percentile per op, likewise (every run has >= 100 ops)
    setup_s      s      fresh process -> first timed op, median of 7 launches
    peak_rss_mb  MB     ru_maxrss of the measuring process

The times are scaled to a reference host speed: after every op the worker
times a fixed pure-Python probe, and each time is divided by the probe's
mean slowdown against its reference time (see `worker.py`).  The shared host
drifts by a quarter or more within minutes; the scaled figures move by a
few percent.  The unscaled ones are in the run record.

`fail_frac` (failed / attempted) is printed with them and in the run record;
it stays out of the JSON metrics because it is 0 whenever the program is
right.  With `--trace 1` the same ops run twice in one process, untraced and
then traced, and the metrics are the per-layer ones from `tracing.py`; the
spans go to `.bench_out/`.

    python3 perfbench/run.py --self-test        # short runs of every workload
    python3 perfbench/run.py --record-digests   # rewrite digests.json (seed 0)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
EXCLUDED = HERE / "excluded.json"
sys.path.insert(0, str(HERE))

from tracing import per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_LAUNCHES = 7
# A run, with all its launches, must end within three minutes.
RUN_BUDGET_S = 170


class BenchError(Exception):
    pass


def launch(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker, killed at `deadline` (time.monotonic); return
    (seconds from launch to READY, its report)."""
    timeout = max(deadline - time.monotonic(), 0.0)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, text=True, cwd=ROOT
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return out.stdout.strip() or "unknown"


def measure(workload, seed, seconds, trace, extra=(), setup_launches=SETUP_LAUNCHES):
    """One benchmark run; returns (result line, run record)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        for _ in range(setup_launches - 1):
            setups.append(launch(base + ["--setup-only"], deadline)[0])
    setup, rep = launch(base + ["--trace", str(trace), *extra], deadline)
    setups.append(setup)
    if rep is None:
        raise BenchError("worker printed no report")
    if trace:
        metrics = {k: rep["per_layer"][k] for k in per_layer_units()}
        units = {k: u for k, (u, _) in per_layer_units().items()}
    else:
        metrics = {k: rep[k] for k in END_TO_END if k != "setup_s"}
        metrics["setup_s"] = statistics.median(setups) / rep["host_slowdown"]
        units = END_TO_END
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ops": rep["ops"],
        "fail_frac": {"value": rep["failed"] / rep["attempted"], "unit": "ratio"},
        "failures": rep["failures"],
        "cpu_frac": rep["cpu_frac"],
        "stream_completed": rep["completed"],
        "host_slowdown": rep["host_slowdown"],
        "unscaled": {**rep["raw"], "setup_s": statistics.median(setups)},
        "setup_samples_s": setups,
        "excluded_cases": [c["case"] for c in json.loads(EXCLUDED.read_text())["cases"]],
    }
    if "spans_file" in rep:
        record["spans_file"] = rep["spans_file"]
    result = {
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, record


def self_test() -> None:
    """Every workload emits every declared metric with its unit, and a
    corrupted reference digest is reported as a failed op."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        raise BenchError("BENCHMARK.json and workloads.py name different workloads")
    for name in WORKLOADS:
        for trace in (0, 1):
            res, rec = measure(name, 0, 1.0, trace, ["--max-ops", "6"], setup_launches=2)
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want[trace]:
                raise BenchError(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(want[trace]))} differ")
            if not res["correct"] or res["attempted"] < 1:
                raise BenchError(f"{name} trace={trace}: failures {rec['failures']}")
            if rec["fail_frac"] != {"value": 0.0, "unit": "ratio"}:
                raise BenchError(f"{name}: run record lacks fail_frac = 0 ratio")
        res, rec = measure(name, 0, 1.0, 0, ["--max-ops", "3", "--corrupt-digest", "1"], 1)
        if res["failed"] != 1 or not rec["failures"][0].startswith("#1:") or "digest" not in rec["failures"][0]:
            raise BenchError(f"{name}: corrupted digest not reported: {rec['failures']}")
        print(f"self-test {name}: ok ({len(want[0])} + {len(want[1])} metrics, corrupted digest caught)")
    print("self-test passed")


def record_digests() -> None:
    out = {"seed": 0, "workloads": {}}
    for name in WORKLOADS:
        args = ["--workload", name, "--seed", "0", "--seconds", "inf", "--record"]
        _, rep = launch(args, time.monotonic() + 3600)
        if rep["failed"]:
            raise BenchError(f"{name}: not recording digests of failing ops: {rep['failures']}")
        out["workloads"][name] = rep["digests"]
        print(f"{name}: {len(rep['digests'])} digests", flush=True)
    (HERE / "digests.json").write_text(json.dumps(out, indent=0) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "binforms" / "__init__.py").is_file():
        print(f"perfbench: no binforms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            self_test()
            return 0
        if args.record_digests:
            record_digests()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for k, m in result["metrics"].items():
        print(f"{k:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':40s} {record['fail_frac']['value']:.6g} ratio  ({record['ops']} ops)")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

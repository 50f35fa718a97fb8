"""One workload in one fresh process: set up, say READY, measure, check, report.

`run.py` starts this script and times it from launch to the READY line; that
interval is the set-up time.  The report is one JSON line on stdout.  Each
op's output is checked right after its timed call, outside the measured
interval, and the result is dropped, so memory holds one result at a time.

The host this runs on is shared, and its speed drifts by a quarter or more
over tens of seconds.  So after every op the worker times `host_probe`, a
fixed piece of pure-Python work like the library's inner loops, and reports
its times both as measured and scaled to a host on which the probe takes
`PROBE_REF_S`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from fractions import Fraction
from math import exp, lgamma, log
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Recorder, reduce_spans  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

DEFAULT_SEED = 0
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SPANS_DIR = ROOT / ".bench_out"
# About host_probe's mean time on a 2-vCPU Xeon VM (Python 3.11).
PROBE_REF_S = 0.0009


class _Mod:
    def __init__(self, p):
        self.p = p

    def mul(self, a, b):
        return a * b % self.p

    def sub(self, a, b):
        return (a - b) % self.p


def host_probe(nr=24, nc=32, p=101) -> float:
    """Seconds taken by fixed work that does not touch the library and is
    shaped like its typical elimination: Gauss-Jordan on a 24x32 matrix mod
    101 through method calls, then a short Fraction sum."""
    t0 = time.perf_counter()
    F = _Mod(p)
    rows = [[(i * 37 + c * c * 11 + i * c + 1) % p for c in range(nc)] for i in range(nr)]
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == nr:
            break
    acc = Fraction(0)
    for k in range(1, 40):
        acc += Fraction(k, k + 1) * Fraction(3, 7)
    return time.perf_counter() - t0


def hd_quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density.  Where the
    samples near the quantile are sparse it moves far less from run to run
    than the single order statistic does."""
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 20
    m = steps * n
    norm = lgamma(a + b) - lgamma(a) - lgamma(b)
    dens = [exp(norm + (a - 1) * log(k / m) + (b - 1) * log(1 - k / m)) if 0 < k < m else 0.0
            for k in range(m + 1)]
    w = [sum(dens[i * steps + t] + dens[i * steps + t + 1] for t in range(steps)) for i in range(n)]
    return sum(wi * x for wi, x in zip(w, sorted(xs))) / sum(w)


def host_slowdown(probes) -> float:
    """How much slower than the reference host the probes ran (mean time)."""
    return sum(probes) / len(probes) / PROBE_REF_S


def import_library():
    """Import binforms from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "binforms" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library at {src / 'binforms'}")
    sys.path.insert(0, str(src))
    bf = importlib.import_module("binforms")
    if Path(bf.__file__).resolve().parent != (src / "binforms").resolve():
        sys.exit(f"perfbench: imported binforms from {bf.__file__}, not from {src}")
    return bf


class Pass:
    """One closed-loop pass over a workload's stream, checking as it goes."""

    def __init__(self, wl, bf, seed, digests=None, corrupt=None):
        self.wl, self.bf, self.seed = wl, bf, seed
        self.digests, self.corrupt = digests, corrupt
        self.lat: list[float] = []
        self.probes: list[float] = []
        self.cpu = 0.0
        self.failures: list[str] = []
        self.completed = False
        self.recorded: list[str] = []

    def run(self, L, seconds, max_ops, recorder=None, record=False):
        """Run the stream to its end, or until `max_ops` ops or `seconds` of op time."""
        state: dict = {}
        busy = 0.0
        for op in self.wl.stream(self.bf, self.seed):
            idx = len(self.lat)
            err = None
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                if recorder is None:
                    res = op.run(L, state)
                else:
                    res = recorder.run_op(idx, op.kind, op.run, L, state)
            except Exception as exc:  # a failing op is counted, not fatal
                res, err = None, f"raised {type(exc).__name__}: {exc}"
            t1, c1 = time.perf_counter(), time.process_time()
            self.lat.append(t1 - t0)
            self.cpu += c1 - c0
            busy += t1 - t0
            self.probes.append(host_probe())
            self._check(idx, op, res, err, record)
            if len(self.lat) >= max_ops or busy >= seconds:
                break
        else:
            self.completed = True
        return self

    def _check(self, idx, op, res, err, record):
        errs = [err] if err else []
        if not errs:
            try:
                errs = self.wl.check(self.bf, op, res)
            except Exception as exc:  # a check that cannot run fails the op
                errs = [f"check raised {type(exc).__name__}: {exc}"]
        if not errs and (record or (self.digests and idx < len(self.digests))):
            got = digest(res)
            if record:
                self.recorded.append(got)
            else:
                want = self.digests[idx]
                if idx == self.corrupt:
                    want = format(int(want, 16) ^ 1, "016x")
                if got != want:
                    errs.append(f"digest {got} differs from recorded {want}")
        if errs:
            self.failures.append(f"{op.label(idx)}: {'; '.join(errs)}")

    @property
    def busy(self) -> float:
        return sum(self.lat)

    def summary(self) -> dict:
        n = len(self.lat)
        ms = [x * 1000 for x in self.lat]
        raw = {
            "ops_per_s": n / self.busy,
            "op_p50_ms": hd_quantile(ms, 0.5),
            "op_p90_ms": hd_quantile(ms, 0.9),
        }
        slow = host_slowdown(self.probes)
        return {
            "ops": n,
            "failed": len(self.failures),
            "failures": self.failures[:20],
            "completed": self.completed,
            "ops_per_s": raw["ops_per_s"] * slow,
            "op_p50_ms": raw["op_p50_ms"] / slow,
            "op_p90_ms": raw["op_p90_ms"] / slow,
            "raw": raw,
            "host_slowdown": slow,
            "cpu_frac": self.cpu / self.busy,
        }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--max-ops", type=int, default=10**9)
    ap.add_argument("--corrupt-digest", type=int, default=None)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    bf = import_library()
    wl = WORKLOADS[args.workload]
    digests = None
    if args.seed == DEFAULT_SEED and not args.record and DIGESTS.is_file():
        digests = json.loads(DIGESTS.read_text())["workloads"].get(wl.name)
    state: dict = {}
    for op in wl.warmup(bf, args.seed):
        op.run(bf, state)
    print("READY", flush=True)
    if args.setup_only:
        return

    plain = Pass(wl, bf, args.seed, digests, args.corrupt_digest).run(
        bf, args.seconds, args.max_ops, record=args.record
    )
    out = plain.summary()
    out["attempted"] = out["ops"]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.record:
        out["digests"] = plain.recorded
    if args.trace:
        rec = Recorder()
        original = rec.install_rref(bf.linalg)
        try:
            traced = Pass(wl, bf, args.seed, digests, args.corrupt_digest).run(
                rec.api(bf), float("inf"), out["ops"], recorder=rec
            )
        finally:
            bf.linalg.rref = original
        layers = reduce_spans(rec.spans, out["ops"])
        layers["run.cpu_frac"] = out["cpu_frac"]
        # Each pass's op time is scaled by its own probes, so host drift
        # between the passes does not read as tracing cost.
        layers["trace.overhead_frac"] = 1 - (plain.busy / host_slowdown(plain.probes)) / (
            traced.busy / host_slowdown(traced.probes)
        )
        out["per_layer"] = layers
        out["attempted"] += len(traced.lat)
        out["failed"] += len(traced.failures)
        out["failures"] += [f"traced {f}" for f in traced.failures[:20]]
        SPANS_DIR.mkdir(exist_ok=True)
        path = SPANS_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        rec.dump(path, {"workload": wl.name, "seed": args.seed, "ops": out["ops"],
                        "fields": ["id", "parent", "name", "start", "end", "op", "extra"]})
        out["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()

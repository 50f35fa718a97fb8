"""Span recording for the traced run, and its reduction to per-layer metrics.

The traced run hands the operations wrappers around the library's public
functions instead of the functions themselves, and rebinds
`binforms.linalg.rref` to a counting wrapper.  `row_basis`, `rank`, `kernel`
and `row_space_intersect` reach `rref` through that module global, so this
one wrapper sees every elimination without a change to the library.

Every op is a root span; every wrapped call is a child of the span that was
open when it started.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from types import SimpleNamespace

# The layers are the library's modules; these are the public functions the
# workloads call.  `fields` is reached only through `rref`, `osequence` only
# inside `hilbert`.
TRACED = {
    "spaces": ("span", "tau", "gcd_of_space"),
    "ideals": ("ancestor_ideal", "level_ideal", "generated_ideal",
               "generator_degrees", "relation_degrees", "hilbert_function"),
    "related": ("related_classes",),
    "hilbert": ("enumerate_acceptable", "dims", "hasse_edges", "realize_staircase"),
    "closure": ("build_h",),
    "waring": ("perp", "tau_delta", "mu", "gad"),
}
RREF = "linalg.rref"
FUNCS = (RREF,) + tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)

# Per-call figures taken from a traced function's result and averaged over
# its calls: metric -> (function, figure of the result, unit, better).
COUNTS = {
    "related.related_classes.classes_per_op": ("related.related_classes", len, "count", "lower"),
    "hilbert.hasse_edges.edges_per_op": ("hilbert.hasse_edges", len, "count", "lower"),
    "waring.gad.split_frac": ("waring.gad", lambda out: type(out).__name__ == "GAD",
                              "ratio", "higher"),
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    out = {
        f"{RREF}.calls_per_op": ("count", "lower"),
        f"{RREF}.cells_per_op": ("count", "lower"),
    }
    for name in FUNCS:
        out[f"{name}.p50_ms"] = ("ms", "lower")
        out[f"{name}.share"] = ("ratio", "lower")
        out[f"{name}.self_share"] = ("ratio", "lower")
    for metric, (_, _, unit, better) in COUNTS.items():
        out[metric] = (unit, better)
    out["run.cpu_frac"] = ("ratio", "higher")
    out["trace.overhead_frac"] = ("ratio", "lower")
    return out


class Recorder:
    """In-memory spans: (id, parent, name, start, end, op index, extra)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._op = -1

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def run_op(self, index: int, kind: str, fn, *args):
        self._op = index
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, f"op.{kind}", t0, t1, index, None)

    def wrap(self, name: str, fn, extra=None):
        def traced(*args, **kwargs):
            sid, parent = self._open()
            t0 = time.perf_counter()
            out, ok = None, False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, name, t0, t1, self._op,
                                   extra(args, out) if extra and ok else None)

        return traced

    def api(self, bf) -> SimpleNamespace:
        """The library as the ops see it, with every traced function wrapped."""
        figures = {fn: figure for fn, figure, _, _ in COUNTS.values()}
        mods = {}
        for mod, names in TRACED.items():
            module = getattr(bf, mod)
            ns = {}
            for n in names:
                figure = figures.get(f"{mod}.{n}")
                ns[n] = self.wrap(f"{mod}.{n}", getattr(module, n),
                                  figure and (lambda args, out, f=figure: f(out)))
            if mod == "waring":
                ns["DualSpace"] = module.DualSpace
            mods[mod] = SimpleNamespace(**ns)
        return SimpleNamespace(**mods)

    def install_rref(self, linalg):
        """Rebind linalg.rref; returns the function to restore."""
        original = linalg.rref
        linalg.rref = self.wrap(RREF, original, lambda args, out: args[0].nrows * args[0].ncols)
        return original

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def reduce_spans(spans, n_ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass of n_ops ops."""
    roots = [s for s in spans if s[1] == -1]
    total = sum(s[4] - s[3] for s in roots) or 1.0
    child_time: dict[int, float] = {}
    for s in spans:
        if s[1] != -1:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[4] - s[3])
    by_name: dict[str, list] = {name: [] for name in FUNCS}
    for s in spans:
        if s[2] in by_name:
            by_name[s[2]].append(s)
    out: dict[str, float] = {}
    for name, ss in by_name.items():
        durs = [s[4] - s[3] for s in ss]
        selfs = [d - child_time.get(s[0], 0.0) for s, d in zip(ss, durs)]
        out[f"{name}.p50_ms"] = statistics.median(durs) * 1000 if durs else 0.0
        out[f"{name}.share"] = sum(durs) / total
        out[f"{name}.self_share"] = sum(selfs) / total
    rref = by_name[RREF]
    out[f"{RREF}.calls_per_op"] = len(rref) / n_ops
    out[f"{RREF}.cells_per_op"] = sum(s[6] or 0 for s in rref) / n_ops
    for metric, (name, _, _, _) in COUNTS.items():
        calls = by_name[name]
        out[metric] = sum(s[6] or 0 for s in calls) / len(calls) if calls else 0.0
    return out

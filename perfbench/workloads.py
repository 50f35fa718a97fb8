"""The four workloads: seeded inputs, the timed operations, and their output checks.

Every workload is a stream of operations built from `--seed` with its own
`random.Random`, so the library sees only raw coefficient lists, (d, j)
pairs and positions in an edge list.  No input repeats within a run, so a
cache that spans calls cannot show a gain that fresh inputs would not get.

Each stream has a fixed length, and its sizes ((d, j), c, m) follow a fixed
golden-ratio sequence; the seed draws the coefficients, the planted linear
forms and the order of the strata cells.  So every run does nearly the
same work and differs from another only in the values the program sees,
which keeps run-to-run spread down to what the host adds.

Each operation is a function `(L, state) -> result`.  `L` holds the library
modules (or, in the traced run, wrappers around their public functions);
`state` carries results that later operations of the same pass read (the
strata closure ops use the edge list of their cell's poset op).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator

PHI = 0.6180339887498949

# Stream lengths: each takes 10-20 s of op time on a 2-vCPU Xeon VM with the
# seed code, and holds at least 100 ops so that p90 has ten samples beyond it.
ANALYZE_OPS = 144
RELATED_OPS = 110
WARING_OPS = 300

# One round of j values; the j = 40 ops with small d are the slow tail.
ANALYZE_J = (10, 20, 10, 10, 20, 10, 40, 10, 20, 10, 10, 20)
# Over Q an op at j = 12 takes about 0.5 s; j <= 10 keeps a run above 100 ops.
RELATED_J = (6, 8, 6, 6, 8, 6, 10, 6)
STRATA_MAX_J = 12
CLOSURE_OPS_PER_CELL = 4


@dataclass
class Op:
    kind: str
    params: dict
    run: Callable[[Any, dict], Any]

    def label(self, index: int) -> str:
        args = ",".join(f"{k}={v}" for k, v in self.params.items() if k in ("d", "j", "c", "m"))
        return f"#{index}:{self.kind}({args})"


def spread(n: int, lo: int, hi: int) -> list[int]:
    """n integers in lo..hi whose every prefix is evenly spread."""
    return [lo + int((k * PHI % 1.0) * (hi - lo + 1)) for k in range(n)]


def random_rows(rng: random.Random, d: int, j: int, draw) -> list[list[int]]:
    rows = []
    while len(rows) < d:
        row = [draw() for _ in range(j + 1)]
        if any(row):
            rows.append(row)
    return rows


# ── analyze-fp ────────────────────────────────────────────────────────────────


def _analyze(L, state, F, j, rows):
    V = L.spaces.span(F, j, rows)
    t = L.spaces.tau(V)
    g = L.spaces.gcd_of_space(V)
    A = L.ideals.ancestor_ideal(V)
    H = L.ideals.hilbert_function(A)
    report = L.hilbert.dims(H, V.dim, j)
    gens = L.ideals.generator_degrees(A)
    rels = L.ideals.relation_degrees(A)
    level = L.ideals.level_ideal(V)
    generated = L.ideals.generated_ideal(V)
    return {
        "V": V, "tau": t, "gcd": g, "ancestor": A, "H": H, "dims": report,
        "gens": gens, "rels": rels, "level": level, "generated": generated,
    }


def analyze_stream(bf, seed, n=ANALYZE_OPS) -> Iterator[Op]:
    rng = random.Random(f"analyze-fp|{seed}")
    F = bf.GF(101)
    js = [ANALYZE_J[k % len(ANALYZE_J)] for k in range(n)]
    ds = {j: iter(spread(js.count(j), 1, j)) for j in set(js)}
    ops = []
    for j in js:
        d = next(ds[j])
        rows = random_rows(rng, d, j, lambda: rng.randrange(101))
        ops.append(Op("analyze", {"d": d, "j": j, "rows": rows},
                      lambda L, s, j=j, rows=rows: _analyze(L, s, F, j, rows)))
    return iter(ops)


def check_analyze(bf, op, r) -> list[str]:
    j = op.params["j"]
    errs = []
    if r["ancestor"].component(j) != r["V"]:
        errs.append("ancestor ideal's degree-j component differs from V")
    if r["gens"] and max(r["gens"]) > j:
        errs.append(f"generator degree above j: {r['gens']}")
    if r["rels"] and min(r["rels"]) < j + 2:
        errs.append(f"relation degree below j+2: {r['rels']}")
    return errs


# ── related-q ─────────────────────────────────────────────────────────────────


def _related(L, state, F, j, rows):
    V = L.spaces.span(F, j, rows)
    t = L.spaces.tau(V)
    A = L.ideals.ancestor_ideal(V)
    H = L.ideals.hilbert_function(A)
    report = L.hilbert.dims(H, V.dim, j)
    classes = L.related.related_classes(V)
    rows_out = [(L.ideals.generator_degrees(I), L.ideals.hilbert_function(I)) for I in classes]
    return {"V": V, "tau": t, "ancestor": A, "H": H, "dims": report,
            "classes": classes, "class_rows": rows_out}


def related_stream(bf, seed, n=RELATED_OPS) -> Iterator[Op]:
    rng = random.Random(f"related-q|{seed}")
    F = bf.QQ
    js = [RELATED_J[k % len(RELATED_J)] for k in range(n)]
    ds = {j: iter(spread(js.count(j), 1, j)) for j in set(js)}
    ops = []
    for j in js:
        d = next(ds[j])
        rows = random_rows(rng, d, j, lambda: rng.randint(-9, 9))
        ops.append(Op("related", {"d": d, "j": j, "rows": rows},
                      lambda L, s, j=j, rows=rows: _related(L, s, F, j, rows)))
    return iter(ops)


def check_related(bf, op, r) -> list[str]:
    errs = []
    n = len(r["classes"])
    if not 1 <= n <= 2 ** r["tau"] - 1:
        errs.append(f"{n} classes outside 1..2^tau-1 (tau={r['tau']})")
    elif not bf.ideals.same_ideal(r["classes"][0], r["ancestor"]):
        errs.append("first related class is not the ancestor ideal of V")
    return errs


# ── waring-fp ─────────────────────────────────────────────────────────────────

WARING_P = 10007


def _apolar(L, state, F, j, rows):
    W = L.waring.DualSpace(L.spaces.span(F, j, rows))
    return {"W": W, "tau_delta": L.waring.tau_delta(W), "mu": L.waring.mu(W),
            "gad": L.waring.gad(W)}


def _perp(L, state, F, j, rows):
    V = L.spaces.span(F, j, rows)
    W = L.waring.perp(V)
    return {"V": V, "W": W, "tau_delta": L.waring.tau_delta(W), "mu": L.waring.mu(W)}


def _planted_rows(bf, F, rng, c, j, m):
    """c combinations of j-th powers of m pairwise independent linear dual forms."""
    lins: list[tuple[int, int]] = []
    while len(lins) < m:
        a, b = rng.randrange(WARING_P), rng.randrange(WARING_P)
        if (a, b) != (0, 0) and all((a * y - b * x) % WARING_P for x, y in lins):
            lins.append((a, b))
    powers = [bf.forms.linear_power(bf.forms.form(F, 1, ab), j).coeffs for ab in lins]
    rows = []
    while len(rows) < c:
        w = [rng.randrange(1, WARING_P) for _ in powers]
        rows.append([sum(a * p[k] for a, p in zip(w, powers)) % WARING_P for k in range(j + 1)])
    return rows


def waring_stream(bf, seed, n=WARING_OPS) -> Iterator[Op]:
    rng = random.Random(f"waring-fp|{seed}")
    F = bf.GF(WARING_P)
    n = -(-n // 3)
    rand_j, plant_j, perp_j = spread(n, 6, 12), spread(n + 3, 6, 12)[3:], spread(n, 6, 20)
    ops = []
    for k in range(n):
        c, j = 1 + k % 3, rand_j[k]
        rows = random_rows(rng, c, j, lambda: rng.randrange(WARING_P))
        ops.append(Op("random-dual", {"c": c, "j": j, "rows": rows},
                      lambda L, s, j=j, rows=rows: _apolar(L, s, F, j, rows)))
        c, j = 1 + (k + 1) % 3, plant_j[k]
        m = 1 + k % (j // 2)
        rows = _planted_rows(bf, F, rng, c, j, m)
        ops.append(Op("planted-dual", {"c": c, "j": j, "m": m, "rows": rows},
                      lambda L, s, j=j, rows=rows: _apolar(L, s, F, j, rows)))
        j = perp_j[k]
        d = 1 + k * 7 % j
        rows = random_rows(rng, d, j, lambda: rng.randrange(WARING_P))
        ops.append(Op("perp", {"d": d, "j": j, "rows": rows},
                      lambda L, s, j=j, rows=rows: _perp(L, s, F, j, rows)))
    return iter(ops)


def check_waring(bf, op, r) -> list[str]:
    errs = []
    if op.kind == "perp":
        t = bf.spaces.tau(r["V"])
        if r["tau_delta"] != t:
            errs.append(f"tau_delta(perp V) = {r['tau_delta']} but tau(V) = {t}")
        return errs
    g = r["gad"]
    if isinstance(g, bf.waring.GAD):
        if g.length != r["mu"]:
            errs.append(f"GAD length {g.length} differs from mu {r['mu']}")
    elif g.form.degree < 1:
        errs.append("unsplit result without a rootless factor")
    if op.kind == "planted-dual":
        if r["mu"] > op.params["m"]:
            errs.append(f"mu {r['mu']} exceeds the {op.params['m']} planted powers")
        if not isinstance(g, bf.waring.GAD):
            errs.append("planted dual space did not split")
    return errs


# ── strata ────────────────────────────────────────────────────────────────────


def _poset(L, state, d, j):
    seqs = L.hilbert.enumerate_acceptable(d, j)
    reports = [L.hilbert.dims(H, d, j) for H in seqs]
    edges = L.hilbert.hasse_edges(d, j)
    state[(d, j)] = edges
    return {"seqs": seqs, "reports": reports, "edges": edges}


def _closure(L, state, F, d, j, pos):
    edges = state[(d, j)]
    general, special = edges[int(pos * len(edges))]
    Vj, I = L.hilbert.realize_staircase(special, d, j, F)
    trace = L.closure.build_h(I, general, j)
    return {"general": general, "special": special, "source_j": Vj, "trace": trace}


def strata_stream(bf, seed) -> Iterator[Op]:
    """Every cell 1 <= d <= j <= 12 once as a poset op, each followed by
    closure ops on up to four distinct cover edges of that cell.  The seed
    orders the cells; the edges
    are fixed, because closure ops on different edges differ twentyfold in
    cost and a seeded choice would move p90 by a fifth from run to run."""
    rng = random.Random(f"strata|{seed}")
    F = bf.GF(101)
    cells = [(d, j) for j in range(1, STRATA_MAX_J + 1) for d in range(1, j + 1)]
    offsets = {cell: k * PHI % 1.0 for k, cell in enumerate(cells)}
    rng.shuffle(cells)
    return _strata_ops(F, cells, [offsets[c] for c in cells])


def _strata_ops(F, cells, offsets):
    for (d, j), u in zip(cells, offsets):
        holder: dict = {}

        def poset(L, state, d=d, j=j, holder=holder):
            out = _poset(L, state, d, j)
            holder["n"] = len(out["edges"])
            return out

        yield Op("poset", {"d": d, "j": j}, poset)
        m = min(CLOSURE_OPS_PER_CELL, holder.get("n", 0))
        for k in range(m):
            pos = (u + k / m) % 1.0
            yield Op("closure", {"d": d, "j": j, "pos": pos},
                     lambda L, s, d=d, j=j, pos=pos: _closure(L, s, F, d, j, pos))


def check_strata(bf, op, r) -> list[str]:
    d, j = op.params["d"], op.params["j"]
    h = bf.hilbert
    if op.kind == "poset":
        want = sum(
            h.count_by_tau(d, j, t, c)
            for t in range(1, min(d, j + 2 - d) + 1)
            for c in range(0, j + 2 - d)
        )
        errs = []
        if len(r["seqs"]) != want:
            errs.append(f"{len(r['seqs'])} sequences, count_by_tau gives {want}")
        nodes = set(r["seqs"])
        if any(a not in nodes or b not in nodes for a, b in r["edges"]):
            errs.append("cover edge with an end outside the enumeration")
        return errs
    final = r["trace"].final_ideal
    errs = []
    if bf.ideals.hilbert_function(final) != r["general"]:
        errs.append("build_h's final Hilbert function differs from the target")
    if final.component(j) != r["source_j"]:
        errs.append("build_h moved the degree-j component")
    return errs


# ── canonical results and digests ─────────────────────────────────────────────


def _feed(h, x) -> None:
    if x is None or isinstance(x, (bool, int, str)):
        h.update(f"{x!r},".encode())
    elif isinstance(x, Fraction):
        h.update(f"{x},".encode())
    elif isinstance(x, (list, tuple)):
        if all(type(v) is int for v in x):
            h.update(f"{list(x)},".encode())
        else:
            h.update(b"[")
            for v in x:
                _feed(h, v)
            h.update(b"],")
    elif isinstance(x, dict):
        h.update(b"{")
        for k in sorted(x, key=str):
            _feed(h, str(k))
            _feed(h, x[k])
        h.update(b"},")
    elif is_dataclass(x):
        h.update(f"{type(x).__name__}(".encode())
        for f in fields(x):
            _feed(h, getattr(x, f.name))
        h.update(b"),")
    else:
        raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(result) -> str:
    """Hash of a result's canonical form, fed piece by piece so that a large
    result costs no large temporary string."""
    h = hashlib.sha256()
    _feed(h, result)
    return h.hexdigest()[:16]


def strata_warmup(bf, seed):
    # Every cell with j <= 12 is measured, so the warm-up uses j = 13.
    return _strata_ops(bf.GF(101), [(2, 13)], [0.5])


def _warmup_from(stream, n):
    """The first n ops of a stream whose seed shares nothing with the measured one."""
    return lambda bf, seed: stream(bf, f"warmup|{seed}", n)


@dataclass(frozen=True)
class Workload:
    name: str
    stream: Callable  # (binforms, seed) -> iterator of Op
    check: Callable  # (binforms, op, result) -> list of error strings
    warmup: Callable  # (binforms, seed) -> iterator of Op


WORKLOADS = {
    w.name: w
    for w in (
        # One small op runs every code path of its stream; waring-fp has three op kinds.
        Workload("analyze-fp", analyze_stream, check_analyze, _warmup_from(analyze_stream, 1)),
        Workload("related-q", related_stream, check_related, _warmup_from(related_stream, 1)),
        Workload("waring-fp", waring_stream, check_waring, _warmup_from(waring_stream, 3)),
        Workload("strata", strata_stream, check_strata, strata_warmup),
    )
}

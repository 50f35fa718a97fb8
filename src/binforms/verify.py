"""Acceptance criteria for the whole library, one function per criterion.

Each criterion re-checks a pinned battery of results — worked examples,
formula cross-validations, realization sweeps, closure builds, Waring
decompositions, related-space counts and the tau calculus — and returns a
CriterionResult.  The pytest suite asserts the results; the `verify` CLI
command prints one pass/fail line per criterion.  Known disagreements
between published constants and the formula-consistent values are emitted
as discrepancy notes rather than silently patched.
"""

from __future__ import annotations

import inspect
import random
import time
from collections import Counter
from dataclasses import dataclass

from . import linalg
from .closure import build_h, step_n
from .errors import PreconditionError
from .fields import GF, QQ
from .forms import form, monomial
from .hilbert import (
    Cmp,
    _up_sets,
    betti_partitions,
    count_by_tau,
    dims,
    dual_partition,
    ell,
    enumerate_acceptable,
    h_tau,
    hilbert_from_partitions,
    le_partial,
    realize_staircase,
    table_rows,
    tau_of_h,
)
from .ideals import (
    _ancestor_betti,
    ancestor_ideal,
    generator_degrees,
    hilbert_function,
    ideal_from_generators,
    level_ideal,
    nu_min,
    relation_degrees,
    same_ideal,
)
from .osequence import oseq
from .related import apply_chain, berman_check, normalize_chain, related_classes
from .spaces import (
    contained,
    equivalent,
    gcd_of_space,
    random_space,
    shift,
    span,
    tau,
)
from .waring import (
    GAD,
    _ann_component,
    gad,
    gad_locus_codim,
    mu,
    mu_generic,
    n_mu_tau,
    perp,
    random_dual,
    tau_delta,
)

F101 = GF(101)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    elapsed: float
    bound: float
    failures: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"ACCEPTANCE {self.number}: {status} — {self.title}"


class _Run:
    """Collects failures/notes and stamps the result with its elapsed time."""

    def __init__(self, number: int, title: str, bound: float):
        self.number = number
        self.title = title
        self.bound = bound
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.t0 = time.perf_counter()

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    def note(self, message: str) -> None:
        self.notes.append(message)

    def result(self) -> CriterionResult:
        elapsed = time.perf_counter() - self.t0
        if elapsed > self.bound:
            self.failures.append(f"time bound exceeded: {elapsed:.2f}s > {self.bound:.0f}s")
        return CriterionResult(
            number=self.number,
            title=self.title,
            passed=not self.failures,
            elapsed=elapsed,
            bound=self.bound,
            failures=tuple(self.failures),
            notes=tuple(self.notes),
        )


def _dj_range(max_j: int):
    for j in range(1, max_j + 1):
        for d in range(1, j + 1):
            yield d, j


# ── criterion 1: worked examples ──────────────────────────────────────────────


def criterion_1() -> CriterionResult:
    run = _Run(1, "worked examples: ancestor ideal and level ideal", 1.0)
    F = QQ

    V = span(F, 4, [monomial(F, 4, 0), monomial(F, 3, 1), monomial(F, 0, 4)])
    anc = ancestor_ideal(V)
    want = ideal_from_generators(F, [monomial(F, 3, 0), monomial(F, 0, 4)])
    run.check(same_ideal(anc, want), "ancestor ideal of <x^4,x^3y,y^4> is (x^3, y^4)")
    run.check(tau(V) == 2, "tau(<x^4,x^3y,y^4>) = 2")
    H = hilbert_function(anc)
    run.check(H == oseq([1, 2, 3, 3, 2, 1], 0), f"H = 1,2,3,3,2,1(0), got {H}")
    E = tuple(H.e(i) for i in range(7))
    run.check(E == (-1, -1, -1, 0, 1, 1, 1), f"difference sequence, got {E}")

    W = span(F, 3, [form(F, 3, [0, 1, 1, 0]), monomial(F, 3, 0), monomial(F, 0, 3)])
    lev = level_ideal(W)
    q = form(F, 2, [1, 1, 1])
    want_lev = ideal_from_generators(F, [q, monomial(F, 3, 0)])
    run.check(
        same_ideal(lev, want_lev),
        "level ideal of <x^2y+xy^2, x^3, y^3> is (x^2+xy+y^2, x^3)",
    )
    HL = hilbert_function(lev)
    run.check(HL == oseq([1, 2, 2, 1], 0), f"level algebra H = 1,2,2,1, got {HL}")
    return run.result()


# ── criterion 2: the (4,5) per-class table ─────────────────────────────────────


def criterion_2() -> CriterionResult:
    run = _Run(2, "(4,5) class table with recomputed codimensions", 1.0)
    rows = table_rows(4, 5)
    run.check(len(rows) == 4, f"4 table rows, got {len(rows)}")
    run.check(
        [str(H) for H in rows]
        == ["1,2,3,4,4,2(0)", "1,2,3,4,3,2,1(0)", "1,2,3,4,3,2(1)", "1(2)"],
        f"row sequences, got {[str(H) for H in rows]}",
    )
    reports = [dims(H, 4, 5) for H in rows]
    got = [(r.tau, r.c, r.A, r.B, r.P, r.Q) for r in reports]
    run.check(
        got
        == [
            (3, 0, (2, 1, 1), (1, 1), (3, 1), (2,)),
            (2, 0, (2, 2), (2,), (2, 2), (1, 1)),
            (2, 1, (2, 2), (1,), (2, 2), (1,)),
            (1, 2, (4,), (), (1, 1, 1, 1), ()),
        ],
        f"tau/c/A/B/P/Q columns, got {got}",
    )
    cods = tuple(r.cod_grass for r in reports)
    run.check(cods == (0, 2, 3, 6), f"recomputed codimensions, got {cods}")
    published = (0, 1, 3, 6)
    for k, (truth, printed) in enumerate(zip(cods, published)):
        if truth != printed:
            run.note(
                f"codimension column, row {k + 1} ({rows[k]}): published {printed}, "
                f"formula-consistent value {truth}"
            )
    run.check(
        cods != published and cods[1] == 2,
        "exactly the second row disagrees with the published column",
    )
    # independent parameter count for the flagged row: every stratum point is
    # R_1*U for U in Grass(2, R_4), a family of dimension 2*(5-2) = 6 inside
    # the ambient Grass(4, R_5) of dimension 4*(6-4) = 8, so the codimension
    # is 2, not 1.  Sampled images land in the flagged stratum:
    hits = 0
    for s in range(6):
        U = random_space(2, 4, F101, seed=300 + s)
        VU = shift(U, 1)
        if VU.dim == 4 and hilbert_function(ancestor_ideal(VU)) == rows[1]:
            hits += 1
    run.check(hits == 6, f"R_1*Grass(2,R_4) sampling oracle, {hits}/6 in stratum")
    run.note("flagged row oracle: dim Grass(2,R_4) = 6, ambient 8, codimension 2")
    return run.result()


# ── criterion 3: the (9,14) example ───────────────────────────────────────────


def criterion_3() -> CriterionResult:
    run = _Run(3, "(9,14) stratum dimensions and Betti partitions", 1.0)
    H = oseq([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 11, 9, 6, 3, 0], 0)
    r = dims(H, 9, 14)
    run.check(r.A == (3, 3, 2, 1), f"A, got {r.A}")
    run.check(dual_partition(r.A) == (4, 3, 2) == r.P, "A* = (4,3,2) = P")
    run.check(ell(r.A) == 2, f"l(A) = 2, got {ell(r.A)}")
    gens = tuple(sorted(15 - a for a in r.A))
    run.check(gens == (12, 12, 13, 14), f"generator degrees, got {gens}")
    run.check(r.C == (4, 4, 3, 2, 1, 1, 1) and ell(r.C) == 17, "C and l(C) = 17")
    run.check(r.dim_grass == 37 and r.cod_grass == 17, f"dim 37 / cod 17, got {r.dim_grass}/{r.cod_grass}")
    run.check(r.B == (2, 2, 2) and dual_partition(r.B) == (3, 3), "B = (2,2,2), B* = (3,3)")
    run.note(
        "published table lists B = (3,3) and B* = (2,2,2); the computed values "
        "are swapped: B = Q* = (2,2,2), B* = (3,3)"
    )
    run.check(r.discrepancies == (), f"all formulas agree at c = 0, got {r.discrepancies}")

    Hc = oseq([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 11, 9, 6, 3, 2, 1], 1)
    rc = dims(Hc, 9, 14)
    run.check(rc.dim_grass == 32, f"companion dimension 32, got {rc.dim_grass}")
    run.note("companion sequence: published dimension 33, formula-consistent value 32")
    run.check(
        any(s.startswith("coda:") for s in rc.discrepancies),
        "companion partition formula flagged at c = 1",
    )
    return run.result()


# ── criterion 4: counting vs enumeration ──────────────────────────────────────


def criterion_4(max_j: int = 9) -> CriterionResult:
    run = _Run(4, "class counts match exhaustive enumeration", 30.0)
    checked = 0
    for d, j in _dj_range(max_j):
        seqs = enumerate_acceptable(d, j)
        groups = Counter((tau_of_h(H, j), H.constant) for H in seqs)
        scanned = 0
        for t in range(1, d + 1):
            for c in range(0, j + 2 - d):
                want = count_by_tau(d, j, t, c)
                got = groups.get((t, c), 0)
                scanned += want
                checked += 1
                run.check(
                    got == want,
                    f"(d,j,tau,c)=({d},{j},{t},{c}): enumerated {got}, formula {want}",
                )
        run.check(
            scanned == len(seqs),
            f"(d,j)=({d},{j}): formula total {scanned} != enumeration {len(seqs)}",
        )
    run.note(f"{checked} (d,j,tau,c) cells compared, d <= j <= {max_j}")
    return run.result()


# ── criterion 5: codimension formula cross-validation ─────────────────────────


def criterion_5(max_j: int = 8) -> CriterionResult:
    run = _Run(5, "codimension formulas against the dimension sums", 60.0)
    recorded: list[str] = []
    n_zero = n_pos = 0
    for d, j in _dj_range(max_j):
        for H in enumerate_acceptable(d, j):
            r = dims(H, d, j)
            if r.c == 0:
                n_zero += 1
                run.check(
                    r.discrepancies == (),
                    f"c=0 sequence {H} (d={d},j={j}) has discrepancies {r.discrepancies}",
                )
            else:
                n_pos += 1
                keys = {s.split(":", 1)[0] for s in r.discrepancies}
                run.check(
                    "codd" not in keys,
                    f"c>0 sequence {H} (d={d},j={j}): codd must stay exact, got {keys}",
                )
                recorded.extend(f"H={H} (d={d},j={j}): {s}" for s in r.discrepancies)
    if max_j >= 5:
        run.check(n_zero > 0 and n_pos > 0, "both constant classes visited")
        run.check(len(recorded) > 0, "partition formulas are known to drift for c > 0")
    run.note(f"{n_zero} sequences with c = 0 exact on every formula")
    run.note(f"{len(recorded)} recorded formula discrepancies over {n_pos} sequences with c > 0")
    for line in recorded[:3]:
        run.note("example: " + line)
    # pinned instance: third (4,5) table row
    r = dims(oseq([1, 2, 3, 4, 3, 2], 1), 4, 5)
    run.check(
        r.formulas["codd"] == 3 == r.cod_grass,
        "pinned c=1 row: codd = 3 = truth",
    )
    run.check(
        r.formulas["coda"] == 3 and r.cod_tau_grass == 1,
        "pinned c=1 row: coda = 3 against in-class truth 1",
    )
    return run.result()


# ── criterion 6: staircase realization + Betti data ───────────────────────────


def criterion_6(max_j: int = 8) -> CriterionResult:
    run = _Run(6, "staircase realization with generator/relation degrees", 60.0)
    total = 0
    for d, j in _dj_range(max_j):
        for H in enumerate_acceptable(d, j):
            V, ideal = realize_staircase(H, d, j, F101)
            total += 1
            ok = hilbert_function(ideal) == H
            run.check(ok, f"H(R/I) = {H} (d={d},j={j})")
            if not ok:
                continue
            A, B, _, _ = betti_partitions(H, d, j)
            gens = generator_degrees(ideal)
            rels = relation_degrees(ideal)
            t = tau_of_h(H, j)
            run.check(
                len(gens) == t == nu_min(H),
                f"nu(I) = tau(H) = nuMin(H) for {H} (d={d},j={j})",
            )
            run.check(
                tuple(sorted(gens)) == tuple(sorted(j + 1 - a for a in A)),
                f"generator degrees j+1-A for {H} (d={d},j={j})",
            )
            run.check(
                tuple(sorted(rels)) == tuple(sorted(j + 1 + b for b in B)),
                f"relation degrees j+1+B for {H} (d={d},j={j})",
            )
            run.check(
                _ancestor_betti(gens, rels, j),
                f"realized ideal is an ancestor ideal for {H} (d={d},j={j})",
            )
            run.check(V == ideal.component(j), f"returned space is I_j for {H}")
    run.note(f"{total} acceptable sequences realized, d <= j <= {max_j}")
    return run.result()


# ── criterion 7: closure builds over comparable pairs ─────────────────────────


def criterion_7(max_j: int = 7) -> CriterionResult:
    run = _Run(7, "closure builds along every comparable pair", 300.0)
    N1 = step_n(
        oseq([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 11, 9, 7, 4, 0], 0),
        oseq([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 12, 11, 8, 4, 0], 0),
    )
    run.check(
        N1 == oseq([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 12, 10, 8, 4, 0], 0),
        f"single nose interpolation step, got {N1}",
    )
    built = 0
    for d, j in _dj_range(max_j):
        pool = enumerate_acceptable(d, j)
        realized = {H: realize_staircase(H, d, j, F101)[1] for H in pool}
        for Hs in pool:
            source = realized[Hs]
            top = max(hilbert_function(source).stabilization(), j) + 1
            for Ht in pool:
                rel = le_partial(Hs, Ht, d, j)
                if rel is not Cmp.GREATER and rel is not Cmp.EQUAL:
                    continue
                tr = build_h(source, Ht, j)
                ideal = tr.final_ideal
                built += 1
                run.check(
                    hilbert_function(ideal) == Ht,
                    f"build {Hs} -> {Ht} (d={d},j={j}): wrong Hilbert function",
                )
                run.check(
                    ideal.component(j) == source.component(j),
                    f"build {Hs} -> {Ht} (d={d},j={j}): degree-j component moved",
                )
                ok_inc = all(
                    contained(ideal.component(i), source.component(i))
                    for i in range(j + 1)
                ) and all(
                    contained(source.component(i), ideal.component(i))
                    for i in range(j, top + 1)
                )
                run.check(ok_inc, f"build {Hs} -> {Ht} (d={d},j={j}): inclusion failed")
                noses = [r for r in tr.steps if r.degrees[1] <= j]
                tails = [r for r in tr.steps if r.degrees[0] > j]
                chained = len(noses) + len(tails) == len(tr.steps) and all(
                    a.after == b.before for a, b in zip(noses, noses[1:])
                ) and all(a.after == b.before for a, b in zip(tails, tails[1:]))
                run.check(chained, f"build {Hs} -> {Ht} (d={d},j={j}): steps do not chain")
    run.note(f"{built} comparable pairs built over GF(101), d <= j <= {max_j}")
    return run.result()


# ── criterion 8: the two poset comparisons agree ──────────────────────────────


def criterion_8(max_j: int = 8) -> CriterionResult:
    run = _Run(8, "direct poset comparison equals the partition route", 30.0)
    pairs = 0
    for d, j in _dj_range(max_j):
        pool = enumerate_acceptable(d, j)
        up = _up_sets(pool, j)  # the bitset order hasse_edges runs
        for a, H1 in enumerate(pool):
            for b, H2 in enumerate(pool):
                if up[a] >> b & 1:
                    direct = Cmp.LESS
                elif up[b] >> a & 1:
                    direct = Cmp.GREATER
                else:
                    direct = Cmp.EQUAL if a == b else Cmp.INCOMPARABLE
                via = le_partial(H1, H2, d, j)  # the partition route build_h runs
                pairs += 1
                run.check(
                    direct is via,
                    f"(d={d},j={j}) {H1} vs {H2}: direct {direct.name}, partitions {via.name}",
                )
    a35 = le_partial(
        oseq([1, 2, 3, 4, 4, 3, 2, 1, 0], 0), oseq([1, 2, 3, 4, 5, 3, 1], 1), 3, 5
    )
    run.check(a35 is Cmp.INCOMPARABLE, f"(3,5) pinned pair incomparable, got {a35.name}")
    Ha = hilbert_from_partitions((4, 2, 2, 2), (3,), 12, 0)
    Hb = hilbert_from_partitions((3, 3, 3, 1), (2, 1), 12, 0)
    a1012 = le_partial(Ha, Hb, 10, 12)
    run.check(a1012 is Cmp.INCOMPARABLE, f"(10,12) pinned pair incomparable, got {a1012.name}")
    run.note(f"{pairs} ordered pairs compared, d <= j <= {max_j}")
    return run.result()


# ── criterion 9: Waring suite ─────────────────────────────────────────────────


def criterion_9(max_j: int = 10) -> CriterionResult:
    run = _Run(9, "apolarity, generic Waring ranks and GAD certificates", 60.0)
    rng = random.Random(91)

    # (a) annihilator of the perp equals the level ideal, one catalecticant per degree
    for s in range(100):
        j = rng.randint(1, 10)
        d = rng.randint(1, j + 1)
        V = random_space(d, j, F101, seed=600 + s)
        W, L = perp(V), level_ideal(V)
        if not run.check(
            all(_ann_component(W, i) == L.component(i) for i in range(j + 1)),
            f"apolarity identity failed at seed {600 + s} (d={d},j={j})",
        ):
            break

    # (b) a single random degree-j functional has length floor((j+2)/2)
    for j in range(4, 13):
        hits = sum(
            mu(random_dual(1, j, F101, seed=100 * j + s)) == (j + 2) // 2
            for s in range(100)
        )
        run.check(hits >= 95, f"c=1, j={j}: generic length hit {hits}/100 < 95")

    # (c) generic length for small codimension c < j/2
    total = hits = 0
    for j in range(4, 13):
        for c in range(1, (j - 1) // 2 + 1):
            for s in range(5):
                W = random_dual(c, j, F101, seed=1000 * j + 10 * c + s)
                total += 1
                hits += mu(W) == c * (j + 2) // (c + 1)
    run.check(hits >= total - 3, f"generic mu for c < j/2: {hits}/{total} hits")
    run.note(f"generic small-codimension length: {hits}/{total} samples exact")

    # (d) realized tau-exact classes hit the in-class generic length
    for d, j in _dj_range(8):
        for t in range(1, min(d, j + 2 - d) + 1):
            V, _ = realize_staircase(h_tau(d, j, t), d, j, F101)
            W = perp(V)
            run.check(
                tau_delta(W) == t,
                f"realized class (d={d},j={j},tau={t}): tau_delta = {tau_delta(W)}",
            )
            ranks = (linalg.rref(linalg.hankel(F101, W._weighted, i + 1)).nrows for i in range(j + 2))
            m = next(i for i, r in enumerate(ranks) if r <= i)  # upward scan
            run.check(
                m == mu_generic(t, d, j),
                f"realized class (d={d},j={j},tau={t}): mu = {m} != {mu_generic(t, d, j)}",
            )

    # (e) every decomposition passes its own certificate (gad() raises on
    # any certificate failure); count the split/unsplit outcomes
    n_gad = n_unsplit = 0
    for s in range(40):
        j = rng.randint(2, 10)
        c = rng.randint(1, j)
        W = random_dual(c, j, F101, seed=4000 + s)
        res = gad(W)
        if isinstance(res, GAD):
            n_gad += 1
            run.check(res.length == mu(W), f"GAD length != mu at seed {4000 + s}")
        else:
            n_unsplit += 1
    run.check(n_gad > 0, "at least one split decomposition observed")
    run.note(f"decompositions over GF(101): {n_gad} split, {n_unsplit} kept as unsplit forms")

    # (f) the partition expression for the decomposition-locus codimension
    # agrees with the closed form on its whole validity domain
    valid = 0
    for j in range(0, max_j + 1):
        for c in range(0, j + 1):
            d = j + 1 - c
            for t in range(1, min(d, c + 1) + 1):
                mmax = mu_generic(t, d, j)
                for m in range(c, mmax + 1):
                    value = gad_locus_codim(m, t, c, j)
                    N = n_mu_tau(m, t, d, j)
                    if m >= c + t - 1 and N.e(m) == 0:
                        valid += 1
                        run.check(
                            value == (j - m) * t - (d - 1),
                            f"codim mismatch at (mu,tau,c,j)=({m},{t},{c},{j})",
                        )
    floor = 150 if max_j >= 10 else 1
    run.check(valid >= floor, f"validity domain unexpectedly small: {valid}")
    run.note(f"{valid} (mu,tau,d,j) tuples on the exact-equality domain, j <= {max_j}")
    run.note(
        "closed form pinned as (j-mu)tau-(d-1); the published constant (d+1) "
        "fails at (mu,tau,d,j)=(11,4,9,14) where the partition value is 4"
    )
    return run.result()


# ── criterion 10: related-spaces suite ────────────────────────────────────────


def criterion_10() -> CriterionResult:
    run = _Run(10, "related classes, chain normal forms, three-variable witness", 30.0)
    F = QQ
    V = span(F, 4, [monomial(F, 4, 0), monomial(F, 3, 1), monomial(F, 0, 4)])
    cls = related_classes(V)
    run.check(len(cls) == 3, f"3 related classes for <x^4,x^3y,y^4>, got {len(cls)}")
    run.check(
        [generator_degrees(I) for I in cls] == [(3, 4), (3,), (0,)],
        "class list is (x^3,y^4), (x^3), (1)",
    )

    rng = random.Random(13)
    count = trial = 0
    while count < 200 and trial < 3000:
        j = rng.randint(2, 8)
        d = rng.randint(1, j + 1)
        W = random_space(d, j, F101, seed=40_000 + trial)
        trial += 1
        t = tau(W)
        if t > 4:
            continue
        n = len(related_classes(W))
        run.check(n <= 2**t - 1, f"class bound broken at seed {40_000 + trial - 1}")
        count += 1
    run.check(count == 200, f"200 bounded samples, got {count}")

    applied = t2 = 0
    while applied < 100 and t2 < 1500:
        j = rng.randint(1, 7)
        d = rng.randint(1, j + 1)
        W = random_space(d, j, F101, seed=60_000 + t2)
        chain = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(1, 4)))
        t2 += 1
        try:
            out = apply_chain(W, chain)
        except PreconditionError:
            continue
        applied += 1
        run.check(
            apply_chain(W, normalize_chain(chain)) == out,
            f"chain normal form changed the action at seed {60_000 + t2 - 1}",
        )
    run.check(applied == 100, f"100 normalized chains checked, got {applied}")

    rep = berman_check()
    run.check(rep.passed, "three-variable mutual-relation witness")
    run.check(rep.witness == (2, 2, 2), "witness monomial is x^2y^2z^2")
    run.note("x^2y^2z^2 lies in the down-shift of W but not in the up-shift of V")
    return run.result()


# ── criterion 11: tau calculus ────────────────────────────────────────────────


def criterion_11() -> CriterionResult:
    def tau_up(W):  # from R_1W: `tau` may read R_{-1}W, by the identity checked here
        return shift(W, 1).dim - W.dim

    run = _Run(11, "tau calculus on random spaces", 30.0)
    rng = random.Random(23)
    for t in range(500):
        j = rng.randint(1, 8)
        d = rng.randint(1, j + 1)
        V = random_space(d, j, F101, seed=50_000 + t)
        tag = f"seed {50_000 + t} (d={d},j={j})"
        tV = tau(V)

        ok = shift(V, -1).dim + shift(V, 1).dim == 2 * V.dim
        run.check(ok, f"dimension identity failed at {tag}")

        lo = -min(j, 3)
        taus = [tau_up(shift(V, u)) for u in range(lo, 4)]
        run.check(max(taus) == taus[-lo] == tV, f"tau peak away from s=0 at {tag}")
        rising = taus[: -lo + 1]
        falling = taus[-lo:]
        run.check(
            all(a <= b for a, b in zip(rising, rising[1:]))
            and all(a >= b for a, b in zip(falling, falling[1:])),
            f"tau not unimodal along shifts at {tag}",
        )

        run.check(
            sum(tau_up(shift(V, -i)) for i in range(0, j + 1)) == V.dim,
            f"downward tau sum != dim at {tag}",
        )
        c = gcd_of_space(V).degree
        total, i = 0, 0
        while True:
            tv = tau_up(shift(V, i))
            total += tv - 1
            if tv == 1:
                break
            i += 1
            if i > V.cod + 4:
                run.check(False, f"upward tau never stabilized at {tag}")
                break
        run.check(total == V.cod - c, f"upward tau sum != cod - c at {tag}")

        s = rng.choice([1, 2, 3])
        eq = equivalent(V, shift(V, s))
        dim_crit = shift(V, s + 1).dim == V.dim + (s + 1) * tV
        run.check(eq == dim_crit, f"dimension criterion mismatch at {tag}, s={s}")

        s2 = rng.choice([-2, -1, 1, 2])
        if V.degree + s2 >= 0:
            W = shift(V, s2)
            if not W.is_zero:
                run.check(
                    equivalent(V, W)
                    == same_ideal(ancestor_ideal(V), ancestor_ideal(W)),
                    f"shift-equivalence vs ancestor equality at {tag}, s={s2}",
                )

        run.check(
            tV == len(generator_degrees(ancestor_ideal(V))),
            f"tau != generator count at {tag}",
        )
    return run.result()


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def run_all(max_j: int | None = None) -> list[CriterionResult]:
    """Run every criterion; `max_j` caps the sweep bounds for quick runs, each
    at the smaller of `max_j` and its criterion's own `max_j` default."""
    results = []
    for fn in ALL_CRITERIA:
        sweep = inspect.signature(fn).parameters.get("max_j")
        capped = sweep is not None and max_j is not None
        results.append(fn(min(sweep.default, max_j)) if capped else fn())
    return results

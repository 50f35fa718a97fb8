"""Apolar duality: perp/annihilator, tau_delta, mu, GADs, generic-value formulas."""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from binforms import linalg
from binforms.errors import PreconditionError
from binforms.fields import GF, QQ
from binforms.cli import main
from binforms.forms import (
    BinaryForm,
    add_form,
    form,
    linear_factors,
    linear_power,
    monic,
    monomial,
    mul_form,
    zero_form,
)
from binforms.hilbert import (
    enumerate_acceptable,
    h_tau,
    nose_tail,
    realize_staircase,
    tau_of_h,
)
from binforms.ideals import hilbert_function, level_ideal, same_ideal
from binforms.osequence import oseq
from binforms.spaces import FormSpace, full_space, principal_space, random_space, space_to_json, span, zero_space
from binforms.waring import (
    GAD,
    DualSpace,
    Unsplit,
    _ann_component,
    annihilator,
    dual_from_json,
    dual_space,
    gad,
    gad_locus_codim,
    mu,
    mu_generic,
    n_mu_tau,
    perp,
    random_dual,
    tau_delta,
)
from oracles import (
    gl2_image,
    oracle_ann_component,
    oracle_catalecticant_scan,
    oracle_gad,
    oracle_gad_cofactors,
    oracle_linear_factors,
    oracle_mu,
    oracle_q_roots,
    oracle_tau_delta,
    random_gl2,
)

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def _dual(field, degree, coeff_rows):
    return dual_space(field, degree, [form(field, degree, r) for r in coeff_rows])


def _planted(field, c, j, m, seed, height=9):
    """c random combinations of the j-th powers of m independent linear dual
    forms, and those forms; over Q every scalar has absolute value <= height."""
    rng = random.Random(f"planted|{field.name}|{c}|{j}|{m}|{seed}")
    scalar = lambda: rng.randrange(field.p) if field.p else rng.randint(-height, height)
    lins = []
    while len(lins) < m:
        a, b = scalar(), scalar()
        if (a, b) != (0, 0) and all(field.coerce(a * v - b * u) for u, v in lins):
            lins.append((a, b))
    powers = [linear_power(form(field, 1, ab), j).coeffs for ab in lins]
    rows = []
    for _ in range(c):
        ws = [scalar() or 1 for _ in powers]
        rows.append([sum(w * pw[k] for w, pw in zip(ws, powers)) for k in range(j + 1)])
    return _dual(field, j, rows), [monic(form(field, 1, ab)) for ab in lins]


# ── perp and annihilator ──────────────────────────────────────────────────────


def test_perp_worked_example():
    V = span(QQ, 3, [form(QQ, 3, [0, 1, 1, 0]), monomial(QQ, 3, 0), monomial(QQ, 0, 3)])
    W = perp(V)
    assert W.dim == 1
    assert W.space.contains(form(QQ, 3, [0, 1, -1, 0]))  # X^2 Y - X Y^2
    assert perp(full_space(QQ, 4)).dim == 0
    assert perp(zero_space(QQ, 4)).dim == 5


@pytest.mark.parametrize("field", [GF(7), GF(101), QQ], ids=lambda F: F.name)
def test_perp_is_the_lazy_kernel_of_the_weighted_rows(monkeypatch, field):
    # V^perp is the `kernel_space` of V's weighted rows, the (Ann W)_j that `annihilator` builds: perp
    # eliminates nothing and calls no catalecticant kernel, and one kernel writes its rows when read
    import binforms.waring as waring

    comps, elims = [], []
    real_comp, real_rref = waring._ann_component, linalg.rref
    monkeypatch.setattr(waring, "_ann_component", lambda W, i: comps.append(i) or real_comp(W, i))
    monkeypatch.setattr(linalg, "rref", lambda m: elims.append(m) or real_rref(m))
    for j in range(1, min(field.p or 11, 11)):  # p > j, for the pairing
        for d in range(j + 2):
            V = random_space(d, j, field, seed=j)
            want = oracle_ann_component(DualSpace(V), j)
            elims.clear()
            W = perp(V)
            assert comps == elims == [] and W.dim == j + 1 - d
            assert not {"rows", "_ints"} & set(vars(W.space.mat)), (j, d)
            assert W.space.mat.rows == want.mat.rows and len(elims) == 1, (j, d)


@pytest.mark.parametrize("field", [GF(7), GF(101), GF(10007), QQ], ids=lambda F: F.name)
def test_perp_reads_tau_delta_mu_and_the_annihilator_off_v(monkeypatch, field):
    # W = perp(V) keeps V as (Ann W)_j: tau_delta is tau(V), (Ann W)_mu the lowest nonzero down-rung
    # of V (closed-form blocks too), annihilator(W) the level ideal of V.  Against the catalecticant
    # rank and upward scan on W's written rows, for random V and blocks f.R_s of every d = dim V,
    # j <= 16 (j < p), and V = (Ann W')_j for planted W' (mu below its bound), as the lazy kernel
    # `annihilator` builds and as a copy whose rows are written when read.  mu is checked against
    # its bound: with mu_generic lowered to mu - 1, mu of a fresh perp(V) raises.
    import binforms.waring as waring

    rng = random.Random(f"perp-rungs|{field.name}")
    for j in range(min(field.p or 17, 17)):
        spaces = [random_space(d, j, field, seed=j) for d in range(j + 2)]
        spaces += [principal_space(form(field, j + 1 - d, [field.random_scalar(rng) for _ in range(j + 2 - d)]), j)
                   for d in range(1, j + 1)]
        lazy = [annihilator(_planted(field, c, j, m, seed=j)[0]).component(j)
                for c in (1, 2) for m in range(1, j // 2 + 1) if c < j]
        spaces += lazy + [FormSpace(field, j, U.mat) for U in lazy]  # walked by echelon steps, then written
        for V in spaces:
            W = perp(V)
            assert W._ann_j is V
            got = tau_delta(W), mu(W), W._initial[1].mat.rows, annihilator(W)
            td, m, comp = oracle_catalecticant_scan(W)
            assert got[:3] == (td, m, comp.mat.rows), (j, V)
            assert got[3] == level_ideal(FormSpace(field, j, V.mat)), (j, V)
            if V.is_zero:  # the full dual space: mu = j + 1, no bound
                continue
            with monkeypatch.context() as mp:
                mp.setattr(waring, "mu_generic", lambda t, d, j: m - 1)
                with pytest.raises(RuntimeError, match="mu_generic"):
                    mu(perp(FormSpace(field, j, V.mat)))


def test_dual_contains_refuses_a_form_of_another_field():
    W = dual_space(GF(101), 2, [[1, 0, 0]])
    with pytest.raises(PreconditionError, match="field mismatch"):
        W.space.contains(form(QQ, 2, [Fraction(1, 2), 0, 0]))  # 1/2 is a unit mod 101
    assert W.space.contains(form(GF(101), 2, [3, 0, 0]))


def test_annihilator_equals_level_ideal():
    V = span(QQ, 3, [form(QQ, 3, [0, 1, 1, 0]), monomial(QQ, 3, 0), monomial(QQ, 0, 3)])
    L = annihilator(perp(V))
    assert L == level_ideal(V)
    assert hilbert_function(L) == oseq([1, 2, 2, 1], 0)
    # the degree-2 component is spanned by x^2 + x y + y^2
    assert L.component(2).dim == 1
    assert L.component(2).contains(form(QQ, 2, [1, 1, 1]))


_ANN_CASES = [(GF(7), j) for j in range(7)] + [(F, j) for F in (GF(101), QQ) for j in (2, 5, 8, 12)]


@pytest.mark.parametrize("field,j", _ANN_CASES, ids=[f"{F.name}-j{j}" for F, j in _ANN_CASES])
def test_annihilator_is_the_level_ideal_of_the_degree_j_catalecticant_kernel(field, j):
    # the lazy kernel of W's weighted rows against the eliminated one, for random, planted and perp duals
    duals = [random_dual(c, j, field, seed=c) for c in range(1, j + 1)]
    duals += [_planted(field, c, j, m, seed=c)[0] for c in (1, 2) for m in range(1, j // 2 + 1)]
    duals += [perp(random_space(d, j, field, seed=d)) for d in range(1, j + 1)]
    for W in duals:
        A, old = annihilator(W), level_ideal(_ann_component(W, j))
        assert same_ideal(A, old) and A == old, W


def test_annihilator_after_mu_eliminates_no_weighted_row(monkeypatch):
    # W = perp(V) keeps V as (Ann W)_j: mu (= j here) walks V's own down-rung, and the level ideal
    # then reads the same memoized rungs, with no elimination, no echelon step and no catalecticant,
    # and none of W's rows is weighted or written
    import binforms.waring as waring

    V = random_space(6, 12, GF(101), 0)
    W, other = perp(V), DualSpace(perp(V).space)  # `other` has no V to read: the catalecticant route
    assert mu(W) == mu(other) == 12
    calls, steps = [], []
    real_rref, real_echelon, real_hankel = linalg.rref, linalg.echelon_extend, waring.hankel
    monkeypatch.setattr(linalg, "rref", lambda mat: calls.append("rref") or real_rref(mat))
    monkeypatch.setattr(linalg, "echelon_extend", lambda F, basis, rows: steps.append(len(rows := tuple(rows)))
                        or real_echelon(F, basis, rows))
    monkeypatch.setattr(waring, "hankel", lambda *a: calls.append("hankel") or real_hankel(*a))
    annihilator(W)
    assert calls == [] and steps == []
    assert not {"rows", "_ints"} & set(vars(W.space.mat)) and "_weighted" not in vars(W)
    # on the catalecticant route, after mu no elimination and no kernel of W's weighted rows: the level
    # ideal's walk starts an echelon basis from W's c weighted rows, and each down step hands it c windows
    annihilator(other)
    assert "rref" not in calls and len(steps) >= 2 and steps == [other.dim] * len(steps)


def test_annihilator_single_power():
    # <X^5> is annihilated by (y), cut off at degree 6
    W = _dual(QQ, 5, [[1, 0, 0, 0, 0, 0]])
    V = span(QQ, 5, [monomial(QQ, 4 - t, t + 1) for t in range(5)])
    assert annihilator(W) == level_ideal(V)


def test_annihilator_edges():
    # W = 0: everything annihilates
    W0 = dual_space(QQ, 4, [])
    assert annihilator(W0) == level_ideal(full_space(QQ, 4))
    # W = full dual: only the tail
    Wf = _dual(QQ, 2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert annihilator(Wf) == level_ideal(zero_space(QQ, 2))


def test_char_guard():
    with pytest.raises(PreconditionError):
        dual_space(GF(3), 5, [])
    with pytest.raises(PreconditionError):
        perp(full_space(GF(3), 5))


def test_dual_json_roundtrip():
    W = random_dual(2, 5, GF(101), seed=7)
    assert dual_from_json(space_to_json(W.space)) == W


# ── tau_delta and mu ──────────────────────────────────────────────────────────


def test_tau_delta_examples():
    assert tau_delta(_dual(QQ, 3, [[0, 1, -1, 0]])) == 2
    assert tau_delta(_dual(QQ, 5, [[1, 0, 0, 0, 0, 0]])) == 1  # <X^5>
    assert tau_delta(dual_space(QQ, 4, [])) == 1
    # <X^3, Y^3> lives in the pencil apolar to (xy)
    assert tau_delta(_dual(QQ, 3, [[1, 0, 0, 0], [0, 0, 0, 1]])) == 1


def test_mu_examples():
    assert mu(_dual(QQ, 3, [[1, 0, 0, 0], [0, 0, 0, 1]])) == 2  # <X^3, Y^3>
    assert mu(_dual(QQ, 3, [[0, 1, -1, 0]])) == 2
    assert mu(dual_space(QQ, 4, [])) == 0
    assert mu(_dual(QQ, 2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3  # full dual


# The catalecticant components and mu, walked down from its generic bound,
# against the contract route and the linear scan: every degree 0..j+3,
# random and planted duals (planted ones have mu = c exactly), over F_101,
# over F_p with p = j+1 (the smallest characteristic the pairing allows) and
# over Q.
_CATALECTICANT_CASES = (
    [(GF(101), j) for j in range(1, 9)]
    + [(GF(j + 1), j) for j in (1, 2, 4, 6, 10)]
    + [(QQ, j) for j in range(1, 7)]
)


@pytest.mark.parametrize(
    "field,j", _CATALECTICANT_CASES, ids=[f"{F.name}-j{j}" for F, j in _CATALECTICANT_CASES]
)
def test_ann_component_and_mu_match_contract_route(field, j):
    duals = [random_dual(c, j, field, seed=31 * j + c) for c in range(j + 2)]
    duals += [_planted(field, c, j, c, seed=j)[0] for c in range(1, j // 2 + 1)]
    for W in duals:
        for i in range(j + 4):
            assert _ann_component(W, i) == oracle_ann_component(W, i), (W, i)
        assert mu(W) == oracle_mu(W), W


def _sparse(field, c, j, seed):
    """The span of c rows with entries in {0, 1, -1}; it may be smaller than c."""
    rng = random.Random(f"sparse|{field.name}|{c}|{j}|{seed}")
    return _dual(field, j, [[rng.choice((0, 0, 1, -1)) for _ in range(j + 1)] for _ in range(c)])


# mu and (Ann W)_mu come from one kernel at mu_generic(tau_delta, d, j) and
# its down-rungs, the annihilator from one kernel in degree j and the same
# walk; both against the per-monomial oracle in every degree 0..j+1.  Random
# and sparse {0, 1, -1} duals of every dimension, planted powers of m = 1..j//2
# linear forms (mu = m, up to several rungs below the bound), zero and full.
_WALK_CASES = (
    [(GF(7), j) for j in range(7)]
    + [(GF(13), j) for j in (3, 8, 12)]
    + [(GF(101), j) for j in (5, 10, 14)]
    + [(GF(10007), j) for j in (9, 14)]
    + [(QQ, j) for j in (4, 7, 9)]
)


@pytest.mark.parametrize("field,j", _WALK_CASES, ids=[f"{F.name}-j{j}" for F, j in _WALK_CASES])
def test_mu_and_annihilator_walk_down_from_the_generic_bound(field, j):
    duals = [dual_space(field, j, []), DualSpace(full_space(field, j))]
    duals += [random_dual(c, j, field, seed=c) for c in range(1, j + 1)]
    duals += [_sparse(field, c, j, seed=c) for c in range(1, j + 2)]
    duals += [_planted(field, c, j, m, seed=c)[0] for c in (1, 2, 3) for m in range(1, j // 2 + 1)]
    for W in duals:
        m = oracle_mu(W)
        assert mu(W) == m and W._initial[1] == oracle_ann_component(W, m), W
        A = annihilator(W)
        assert all(A.component(i) == oracle_ann_component(W, i) for i in range(j + 2)), W


def test_a_zero_component_at_the_bound_is_an_internal_error(monkeypatch):
    # no mu rests on the bound unchecked: lowered by one, the bound of a
    # generic space (mu = mu_generic) has no apolar form, and mu refuses
    import binforms.waring as waring

    W = random_dual(2, 12, GF(101), seed=0)
    bound = mu_generic(tau_delta(W), W.space.cod, 12)
    assert mu(random_dual(2, 12, GF(101), seed=0)) == bound
    monkeypatch.setattr(waring, "mu_generic", lambda t, d, j: bound - 1)
    with pytest.raises(RuntimeError, match="mu_generic"):
        mu(W)


@pytest.mark.parametrize("c,j", [(1, 10), (2, 12), (3, 12)])
def test_mu_and_annihilator_build_one_catalecticant_kernel(monkeypatch, c, j):
    import dataclasses

    import binforms.waring as waring

    comps, elims = [], []
    real_comp, real_rref = waring._ann_component, linalg.rref
    monkeypatch.setattr(waring, "_ann_component", lambda V, i: comps.append(i) or real_comp(V, i))
    monkeypatch.setattr(linalg, "rref", lambda mat: elims.append(mat) or real_rref(mat))
    for seed in range(5):
        W = random_dual(c, j, GF(101), seed)
        bound = mu_generic(tau_delta(W), j + 1 - c, j)
        comps.clear()
        assert mu(W) == bound and comps == [bound]  # generic: the walk stops at once
        comps.clear()
        annihilator(W)
        assert comps == []  # the lazy kernel of W's weighted rows: no catalecticant eliminated
        elims.clear()
        tau_delta(W)
        assert elims == []  # computed once per dual space
        assert [f.name for f in dataclasses.fields(W)] == ["space"]


def _least_prime_above(j):
    return next(p for p in range(max(2, j + 1), 2 * j + 3) if all(p % q for q in range(2, p)))


# tau_delta reads dim R_1.W off (Ann W)_{j-1}; the oracle spans the
# contractions x.w and y.w.  Every c = 0..j+1 for j = 0..12, plus planted
# powers, over F_101, over the smallest field the pairing allows (F_{j+1}
# when j+1 is prime) and over Q.
@pytest.mark.parametrize("kind", ["F101", "Fsmall", "Q"])
def test_tau_delta_matches_contract_route(kind):
    for j in range(13):
        field = {"F101": GF(101), "Fsmall": GF(_least_prime_above(j)), "Q": QQ}[kind]
        duals = [random_dual(c, j, field, seed=17 * j + c) for c in range(j + 2)]
        duals += [_planted(field, c, j, m, seed=j)[0]
                  for c in range(1, 4) for m in range(1, j // 2 + 1)]
        for W in duals:
            assert tau_delta(W) == oracle_tau_delta(W), (field.name, j, W)


# ── generalized additive decompositions ───────────────────────────────────────


def _linear_coeffs(g):
    return [tuple(l.coeffs) for l in g.linear_forms]


def test_gad_monomial_pair():
    g = gad(_dual(QQ, 3, [[1, 0, 0, 0], [0, 0, 0, 1]]))  # <X^3, Y^3>
    assert isinstance(g, GAD)
    assert g.weights == (1, 1)
    assert g.length == 2
    assert _linear_coeffs(g) == [(1, 0), (0, 1)]  # X and Y


def test_gad_split_depends_on_field():
    # x^2 + x y + y^2 factors mod 7 but not over the rationals
    g7 = gad(_dual(GF(7), 3, [[0, 1, -1, 0]]))
    assert isinstance(g7, GAD)
    assert g7.length == 2
    assert _linear_coeffs(g7) == [(1, 2), (1, 4)]  # X + 2Y, X + 4Y
    gq = gad(_dual(QQ, 3, [[0, 1, -1, 0]]))
    assert isinstance(gq, Unsplit)
    assert gq.form == form(QQ, 2, [1, 1, 1])


def test_gad_single_power():
    g = gad(_dual(QQ, 5, [[1, 0, 0, 0, 0, 0]]))
    assert isinstance(g, GAD)
    assert g.weights == (1,)
    assert _linear_coeffs(g) == [(1, 0)]


def test_gad_tries_later_candidates():
    # Ann_3 = <x^3 - x y^2, x^2 y + y^3>: the lex-first element keeps an
    # irreducible quadratic, the second splits into three linear forms
    W = perp(span(QQ, 3, [form(QQ, 3, [1, 0, -1, 0]), form(QQ, 3, [0, 1, 0, 1])]))
    assert mu(W) == 3
    g = gad(W)
    assert isinstance(g, GAD)
    assert g.weights == (1, 1, 1)
    assert _linear_coeffs(g) == [(1, 1), (0, 1), (1, -1)]


def test_gad_unsplit_after_all_candidates():
    # both basis elements of Ann_3 are blocked by rootless parts
    W = perp(span(QQ, 3, [form(QQ, 3, [1, 0, 0, -2]), form(QQ, 3, [0, 1, 0, 1])]))
    assert mu(W) == 3
    g = gad(W)
    assert isinstance(g, Unsplit)
    assert g.form == form(QQ, 2, [1, 0, 1])  # rootless part of the lex-first element


def test_gad_full_dual():
    g = gad(_dual(QQ, 2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert isinstance(g, GAD)
    assert g.weights == (3,)
    assert g.length == 3 == mu(_dual(QQ, 2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


@pytest.mark.parametrize("field", [GF(7), GF(101), QQ], ids=lambda F: F.name)
def test_zero_dual_space_in_every_degree(field):
    # every form kills W = 0: tau_delta 1, mu 0, all of R, the empty decomposition
    for j in range(7):
        W = dual_space(field, j, [])
        assert tau_delta(W) == 1
        assert mu(W) == 0 and W._initial[1] == full_space(field, 0)
        assert annihilator(W) == level_ideal(full_space(field, j))
        assert gad(W) == GAD((), (), ())


@pytest.mark.parametrize("field", [GF(1000003), QQ], ids=lambda F: F.name)
def test_zero_dual_space_of_huge_degree_weights_nothing(field, monkeypatch):
    # a W with no row needs none of the j + 1 pairing weights, nor the running factorials behind them
    import binforms.waring as waring

    monkeypatch.setattr(waring, "accumulate", lambda *a, **k: pytest.fail("a weight was built"))
    W = dual_space(field, 10**6, [])
    assert (tau_delta(W), mu(W), gad(W)) == (1, 0, GAD((), (), ()))


def test_gad_zero_dual():
    g = gad(dual_space(QQ, 4, []))
    assert isinstance(g, GAD)
    assert g.length == 0


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 8), st.integers(0, 8), st.integers(0, 10**6))
def test_gad_certificate_random(j, craw, seed):
    c = min(craw, j + 1)
    W = random_dual(c, j, GF(101), seed=seed)
    g = gad(W)  # internal certificate: membership + cofactor reconstruction
    if isinstance(g, GAD):
        assert g.length == mu(W)
        assert len(g.cofactors) == W.dim
    else:
        assert g.form.degree >= 2


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([GF(101), QQ]), st.integers(1, 3), st.integers(1, 3), st.integers(0, 10**6))
def test_gad_forms_are_independent_and_weighted(field, c, m, seed):
    # GAD trusts the data gad builds it from (distinct linear factors of an
    # apolar form and their multiplicities); the check lives here
    W, _ = _planted(field, c, 2 * m + 1, m, seed)
    g = gad(W)
    if isinstance(g, GAD):
        assert len(g.weights) == len(g.linear_forms) and all(b >= 1 for b in g.weights)
        for u, L in enumerate(g.linear_forms):
            for M in g.linear_forms[u + 1 :]:
                (a0, a1), (b0, b1) = L.coeffs, M.coeffs
                assert field.coerce(a0 * b1 - a1 * b0)


@pytest.mark.parametrize("c", [2, 3])
def test_gad_q_j12_is_certified_against_sympy(c):
    # the apolar forms have coefficients of height about 10^20, far beyond
    # trial division over the divisors of a_0 and a_n; the golden `waring`
    # cases over Q at j = 12 read these spaces
    W = random_dual(c, 12, QQ, seed=0)
    golden = GOLDEN_INPUTS / f"dual_q_j12_c{c}.json"
    assert space_to_json(W.space) == json.loads(golden.read_text(encoding="utf-8"))
    g = gad(W)
    m = mu(W)
    assert m == oracle_mu(W)
    rows = sorted(_ann_component(W, m).mat.rows)
    splits = []
    for row in rows:
        f = BinaryForm(QQ, m, row)
        factors, rem = linear_factors(f)
        assert ({l.coeffs: k for l, k in factors}, rem.coeffs) == oracle_linear_factors(f)
        splits.append(rem.degree == 0)
    # no candidate splits over Q, so gad reports the lex-first rootless part
    assert isinstance(g, Unsplit) and not any(splits)
    assert g.form == linear_factors(BinaryForm(QQ, m, rows[0]))[1]


def test_gad_q_j30_reports_a_rootless_factor():
    # the apolar forms here carry coefficients of dozens of digits; their
    # squarefree parts and gcds run on integers, never Euclid over Fractions
    g = gad(random_dual(8, 30, QQ, seed=0))
    assert isinstance(g, Unsplit) and g.form.degree >= 1
    assert oracle_q_roots(g.form.coeffs) == []


def test_gad_q_at_height_2_200_is_quick():
    # the apolar forms' coefficients run to tens of thousands of bits; each
    # root is read off f_n r, with no rational reconstruction
    rng, h = random.Random("gad-q|2^200|0"), 2**200
    rows = [[Fraction(rng.randint(-h, h), rng.randint(1, h)) for _ in range(13)] for _ in range(2)]
    W = _dual(QQ, 12, rows)
    start = time.perf_counter()
    assert isinstance(gad(W), Unsplit)
    assert time.perf_counter() - start < 5.0


def test_gad_q_planted_at_height_2_200():
    # roots a/b of the apolar cubic with |a|, |b| near 2^200, recovered exactly
    W, lins = _planted(QQ, 2, 10, 3, seed=0, height=2**200)
    g = gad(W)
    assert isinstance(g, GAD) and g.weights == (1, 1, 1)
    assert sorted(L.coeffs for L in g.linear_forms) == sorted(L.coeffs for L in lins)


def test_mu_and_gad_share_one_bisection(monkeypatch):
    import dataclasses

    import binforms.waring as waring

    W, twin, fresh = (random_dual(2, 10, GF(10007), seed=3) for _ in range(3))
    m = mu(W)
    calls = []
    real = waring._ann_component
    monkeypatch.setattr(waring, "_ann_component", lambda V, i: calls.append(i) or real(V, i))
    g = gad(W)
    assert calls == []  # gad reads the component mu found
    assert gad(twin) == g and mu(twin) == m and calls  # a new instance builds its own
    # the memo is no dataclass field: equality, hashing and fields see `space`
    assert "_initial" in W.__dict__ and "_initial" not in fresh.__dict__
    assert W == fresh and hash(W) == hash(fresh) and repr(W) == repr(fresh)
    assert dataclasses.fields(W) == dataclasses.fields(fresh)
    assert [f.name for f in dataclasses.fields(W)] == ["space"]


@pytest.mark.parametrize("p", [2147483647, 2305843009213693951])
@pytest.mark.parametrize("m", [2, 3])
def test_gad_planted_powers_large_prime(p, m, tmp_path, capsys):
    # a residue scan would visit all p candidates; gcd(f, t^p - t) does not
    F = GF(p)
    for c in sorted({1, m}):
        W, lins = _planted(F, c, 12, m, seed=p % 97)
        assert mu(W) == m
        g = gad(W)
        assert isinstance(g, GAD)
        assert g.length == m and g.weights == (1,) * m
        assert sorted(L.coeffs for L in g.linear_forms) == sorted(L.coeffs for L in lins)
        path = tmp_path / f"W{c}.json"
        path.write_text(json.dumps(space_to_json(W.space)))
        assert main(["waring", str(path), "--field", F.name, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mu"] == m and data["gad"]["length"] == m


# ── random identities ─────────────────────────────────────────────────────────


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 8), st.integers(0, 8), st.integers(0, 10**6))
def test_apolarity_identity_random(j, draw_d, seed):
    d = min(draw_d, j + 1)
    V = random_space(d, j, GF(101), seed=seed)
    assert annihilator(perp(V)) == level_ideal(V)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 8), st.integers(0, 8), st.integers(0, 10**6))
def test_mu_and_tau_delta_bounds_random(j, craw, seed):
    c = min(craw, j)
    W = random_dual(c, j, GF(101), seed=seed)
    t = tau_delta(W)
    assert 1 <= t <= min(c + 1, j + 1 - c)
    m = mu(W)
    assert c <= m <= mu_generic(t, j + 1 - c, j)


def test_generic_mu_single_form():
    # c = 1: the classical generic value floor((j+2)/2); frozen seeds
    hits = 0
    for j in range(4, 13):
        for s in range(10):
            W = random_dual(1, j, GF(101), seed=9000 + 17 * j + s)
            if mu(W) == (j + 2) // 2:
                hits += 1
    assert hits >= 86  # out of 90


def test_generic_mu_small_codim():
    hits = total = 0
    for j in range(4, 11):
        for c in range(1, (j - 1) // 2 + 1):
            for s in range(4):
                W = random_dual(c, j, GF(101), seed=1000 * j + 10 * c + s)
                total += 1
                if mu(W) == (c * (j + 2)) // (c + 1):
                    hits += 1
    assert hits >= total - 2


def test_generic_tau_delta():
    for j in range(2, 9):
        for c in range(1, j + 1):
            W = random_dual(c, j, GF(101), seed=7000 + 100 * j + 10 * c)
            assert tau_delta(W) == min(c + 1, j + 1 - c)


def test_realized_spaces_hit_generic_mu():
    # staircase spaces with ancestor h_tau have the extreme mu exactly
    for j in range(1, 8):
        for d in range(1, j + 1):
            for t in range(1, min(d, j + 2 - d) + 1):
                V, _ = realize_staircase(h_tau(d, j, t), d, j, GF(101))
                W = perp(V)
                assert tau_delta(W) == t
                assert mu(W) == mu_generic(t, d, j)


# ── generic-value formulas ────────────────────────────────────────────────────


def test_mu_generic_values():
    assert mu_generic(1, 4, 7) == 4  # tau = 1: mu = c
    assert mu_generic(4, 9, 14) == 12
    for j in range(4, 13):
        assert mu_generic(2, j, j) == (j + 2) // 2  # c = 1
    for j in range(4, 11):
        for c in range(1, (j - 1) // 2 + 1):
            d = j + 1 - c
            assert mu_generic(c + 1, d, j) == (c * (j + 2)) // (c + 1)


def test_mu_generic_guards():
    with pytest.raises(PreconditionError):
        mu_generic(0, 4, 7)
    with pytest.raises(PreconditionError):
        mu_generic(5, 4, 7)  # tau > d
    with pytest.raises(PreconditionError):
        mu_generic(4, 6, 7)  # tau > j + 2 - d
    with pytest.raises(PreconditionError):
        mu_generic(1, 9, 7)  # d > j + 1


def test_n_mu_tau_worked_example():
    N = n_mu_tau(11, 4, 9, 14)
    assert N.values(14) == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 11, 11, 9, 6)
    assert N.constant == 0
    assert N.order() == 11
    with pytest.raises(PreconditionError):
        n_mu_tau(5, 4, 9, 14)  # mu < c
    with pytest.raises(PreconditionError):
        n_mu_tau(13, 4, 9, 14)  # mu > mu_generic


def test_n_mu_tau_tau_one_is_principal():
    N = n_mu_tau(4, 1, 4, 7)
    assert N.values(7) == (1, 2, 3, 4, 4, 4, 4, 4)


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 9), st.integers(0, 10**6))
def test_n_mu_tau_properties(j, seed):
    import random as _r

    rng = _r.Random(seed)
    d = rng.randint(1, j)
    c = j + 1 - d
    t = rng.randint(1, min(d, j + 2 - d))
    m = rng.randint(c, mu_generic(t, d, j))
    N = n_mu_tau(m, t, d, j)
    assert N.order() == m
    assert N.value(j) == c
    # termwise maximal among acceptable level noses with this tau and order <= m
    for H in enumerate_acceptable(d, j):
        o = H.order()
        if tau_of_h(H, j) == t and o is not None and o <= m:
            nose = nose_tail(H, j)[0]
            assert all(nose.value(i) <= N.value(i) for i in range(j + 1))


def test_gad_locus_codim_values():
    assert gad_locus_codim(11, 4, 6, 14) == 4
    assert gad_locus_codim(12, 4, 6, 14) == 0
    assert gad_locus_codim(4, 1, 4, 7) == 0
    assert gad_locus_codim(5, 3, 3, 8) == 4
    assert gad_locus_codim(6, 3, 3, 8) == 1
    # the closed form's constant term is -(d-1); shifting it to -(d+1)
    # contradicts the direct ell(A) route
    assert gad_locus_codim(11, 4, 6, 14) != (14 - 11) * 4 - (9 + 1)


def test_gad_locus_codim_sweep_consistent():
    # the two routes (ell of the dual nose partition, closed form) are
    # asserted inside the call; sweep the whole valid range
    for j in range(1, 11):
        for d in range(1, j + 1):
            c = j + 1 - d
            for t in range(1, min(d, j + 2 - d) + 1):
                for m in range(c, mu_generic(t, d, j) + 1):
                    v = gad_locus_codim(m, t, c, j)
                    assert v >= 0
                    if m >= c + t - 1 and n_mu_tau(m, t, d, j).e(m) == 0:
                        assert v == (j - m) * t - (d - 1)


# ── one kernel certifies and solves every cofactor ────────────────────────────


@settings(deadline=None, max_examples=120)
@given(
    st.sampled_from([GF(7), GF(101), GF(10007), QQ]),
    st.integers(1, 14),
    st.integers(1, 4),
    st.integers(1, 4),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_gad_cofactors_match_one_solve_per_element(field, j, c, m, planted, seed):
    j = min(j, field.p - 1) if field.p else j  # the pairing needs p > j
    if planted:
        W, _ = _planted(field, c, j, min(m, j + 1), seed)
    else:
        W = random_dual(min(c, j + 1), j, field, seed)
    g = gad(W)
    if isinstance(g, GAD):
        assert g.cofactors == oracle_gad_cofactors(W, g.linear_forms, g.weights)


@pytest.mark.parametrize("field", [GF(7), GF(101), QQ], ids=lambda F: F.name)
@pytest.mark.parametrize("c,m", [(1, 1), (2, 3), (3, 3)])
def test_gad_eliminates_once_on_a_split_candidate(monkeypatch, field, c, m):
    W, _ = _planted(field, c, 6, m, seed=5)
    mu(W)  # gad reads the component mu found
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda mat: calls.append(mat) or real(mat))
    g = gad(W)
    assert isinstance(g, GAD)
    assert [(mat.nrows, mat.ncols) for mat in calls] == [(7, W.dim + g.length)]


@pytest.mark.parametrize("lines", [[[1, 0], [0, 1]], [[1, 0], [1, 0]]], ids=["escapes", "dependent"])
def test_gad_refuses_powers_that_miss_the_dual_space(monkeypatch, lines):
    # factors that do not kill W: X^6, Y^6 miss a planted space, and a
    # repeated factor makes the power span too small; the one kernel sees both
    import binforms.waring as waring

    F = GF(101)
    W, _ = _planted(F, 2, 6, 2, seed=1)
    assert mu(W) == 2
    fake = [(form(F, 1, ab), 1) for ab in lines]
    monkeypatch.setattr(waring, "_linear_split", lambda field, coeffs: ([1], lambda: fake))
    with pytest.raises(RuntimeError, match="dual space escapes its apolar power span"):
        gad(W)


# ── gad factors only the candidate it keeps ───────────────────────────────────

GAD_FIELDS = [GF(2), GF(3), GF(7), GF(101), GF(10007), GF(2**61 - 1), QQ]


def _weighted_planted(field, c, j, lins, weights, rng):
    """The span of c random combinations of the X^s Y^t L^(j+1-b) (s+t = b-1)
    for the linear dual forms L (coefficient pairs) with weights b."""
    scalar = lambda: rng.randrange(field.p) if field.p else rng.randint(-9, 9)
    gens = [mul_form(monomial(field, b - 1 - t, t), linear_power(form(field, 1, L), j + 1 - b))
            for L, b in zip(lins, weights) for t in range(b)]
    rows = []
    for _ in range(c):
        acc = zero_form(field, j)
        for g in gens:
            s = scalar()
            acc = add_form(acc, form(field, j, [s * x for x in g.coeffs]))
        rows.append(acc)
    return dual_space(field, j, rows)


@st.composite
def gad_cases(draw):
    """Random duals, and planted ones: pairwise independent L, some of them X
    or Y (apolar forms with a power of y or of x), weights up to 3 (apolar
    forms that are not squarefree).  The pairing needs p > j."""
    field = draw(st.sampled_from(GAD_FIELDS))
    j = draw(st.integers(1, min(10, field.p - 1) if field.p else 10))
    c = draw(st.integers(1, min(3, j + 1)))
    rng = random.Random(draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        return random_dual(c, j, field, rng.randrange(10**6))
    scalar = lambda: rng.randrange(field.p) if field.p else rng.randint(-9, 9)
    lins = rng.choice([[], [(1, 0)], [(0, 1)], [(1, 0), (0, 1)]])
    want = rng.randint(len(lins), 3 if field.p == 2 else 4)
    while len(lins) < want:
        a, b = scalar(), scalar()
        if (a, b) != (0, 0) and all(field.coerce(a * v - b * u) for u, v in lins):
            lins.append((a, b))
    rng.shuffle(lins)
    weights = [min(rng.randint(1, 3), j + 1) for _ in lins]
    return _weighted_planted(field, c, j, lins, weights, rng)


@settings(deadline=None, max_examples=200)
@given(gad_cases())
def test_gad_matches_the_factor_every_candidate_oracle(W):
    assert gad(W) == oracle_gad(W)


# weights >= 2 at roots off t = 0 and t = oo: the remainder must divide each
# root out as often as it repeats, and the kept candidate count it
_REPEATED = [
    (GF(3), 2, [(1, 1)], [2]),
    (GF(7), 6, [(1, 3), (1, 5)], [2, 1]),
    (GF(101), 10, [(1, 2), (3, 1)], [3, 2]),
    (GF(10007), 9, [(2, 5)], [3]),
    (GF(2**61 - 1), 10, [(1, 7), (1, 0)], [2, 3]),
    (QQ, 9, [(1, 2), (1, -1)], [2, 2]),
]


@pytest.mark.parametrize("field,j,lins,weights", _REPEATED, ids=[case[0].name for case in _REPEATED])
def test_gad_counts_the_repeated_factors_of_the_kept_candidate(field, j, lins, weights):
    W = _weighted_planted(field, sum(weights), j, lins, weights, random.Random(0))
    g = gad(W)
    assert isinstance(g, GAD) and sorted(g.weights) == sorted(weights)
    assert g == oracle_gad(W)


_CHAIN_CASES = [(GF(5), 4), (GF(7), 6), (GF(101), 10), (GF(10007), 12), (GF(2**61 - 1), 9)]


@pytest.mark.parametrize("field,j", _CHAIN_CASES, ids=[f"{F.name}-j{j}" for F, j in _CHAIN_CASES])
def test_gad_reads_weights_of_two_and_more_off_the_remainder_chain(field, j):
    # over F_p a root's multiplicity is counted on the chain gcd(rem, g), not by division
    rng = random.Random(f"chain|{field.name}|{j}")
    split = 0
    for _ in range(8):
        lins, want = rng.choice([[], [(1, 0)], [(0, 1)]]), rng.randint(1, 3)
        while len(lins) < want:
            a, b = rng.randrange(field.p), rng.randrange(field.p)
            if (a, b) != (0, 0) and all(field.coerce(a * v - b * u) for u, v in lins):
                lins.append((a, b))
        weights = [rng.randint(2, 4) for _ in lins]
        while sum(weights) > (j + 1) // 2 and max(weights) > 2:
            weights[weights.index(max(weights))] -= 1
        W = _weighted_planted(field, rng.randint(1, sum(weights)), j, lins, weights, rng)
        g = gad(W)
        assert g == oracle_gad(W), W
        split += isinstance(g, GAD) and max(g.weights, default=0) >= 2
        for f in W._initial[1].basis_forms():
            factors, rem = linear_factors(f)
            assert ({l.coeffs: m for l, m in factors}, rem.coeffs) == oracle_linear_factors(f), f
    assert split


def _unsplit_fp(p, j):
    return next(W for W in (random_dual(2, j, GF(p), seed) for seed in range(50))
                if isinstance(gad(W), Unsplit))


@pytest.mark.parametrize("p", [101, 10007])
def test_an_unsplit_result_over_fp_raises_no_half_power(monkeypatch, p):
    # only the kept candidate is split into roots; a rootless remainder needs
    # one Frobenius power t^p per candidate and no (t+a)^((p-1)/2)
    import binforms.forms as forms

    W = _unsplit_fp(p, 10)
    W = DualSpace(W.space)  # fresh memos
    m = mu(W)
    exponents = []
    real = forms._powmod_p
    monkeypatch.setattr(forms, "_powmod_p", lambda a, e, f, q: exponents.append(e) or real(a, e, f, q))
    assert isinstance(gad(W), Unsplit)
    assert exponents == [p] * W._initial[1].dim and m == W._initial[0]


# ── (Ann W)_{j-1}, the kernel of the catalecticant tau_delta ranks ────────────


def _at_j_minus_1(field, j, seeds):
    """Random and planted duals with mu_generic(tau_delta, d, j) = j-1."""
    duals = [random_dual(c, j, field, seed) for c in range(1, j + 1) for seed in seeds]
    duals += [_planted(field, c, j, m, seed)[0] for c in (1, 2, 3) for m in range(1, j // 2 + 1)
              for seed in seeds]
    return [W for W in duals if W.space.cod and mu_generic(tau_delta(W), W.space.cod, j) == j - 1]


_JM1_CASES = [(GF(7), 6), (GF(101), 8), (GF(101), 12), (GF(10007), 14), (QQ, 6), (QQ, 9)]


@pytest.mark.parametrize("field,j", _JM1_CASES, ids=[f"{F.name}-j{j}" for F, j in _JM1_CASES])
def test_ann_component_below_j_reads_the_ranked_catalecticant(field, j):
    duals = _at_j_minus_1(field, j, range(3))
    assert duals
    for W in duals:
        fresh = DualSpace(W.space)
        assert _ann_component(fresh, j - 1) == oracle_ann_component(W, j - 1), W
        assert mu(fresh) == oracle_mu(W)
        assert fresh._initial[1] == oracle_ann_component(W, mu(W)), W


# ── mu read off tau_delta's elimination from mu_generic >= j-1 on ──────────────


def _route(W):
    """Where `_initial` starts: 0 for mu_generic = j, 1 for j-1, 2 below (a catalecticant kernel)."""
    return min(2, W.degree - mu_generic(tau_delta(W), W.space.cod, W.degree))


_READOUT_CASES = (
    [(GF(7), j) for j in (3, 6)] + [(GF(101), j) for j in (5, 9, 14)]
    + [(GF(10007), j) for j in (8, 12)] + [(QQ, j) for j in (4, 7, 10)]
)


@pytest.mark.parametrize("field,j", _READOUT_CASES, ids=[f"{F.name}-j{j}" for F, j in _READOUT_CASES])
def test_mu_tau_delta_and_the_apolar_component_match_the_oracles_on_every_route(field, j):
    duals = [random_dual(c, j, field, seed=c) for c in range(1, j + 1)]
    duals += [_planted(field, c, j, m, seed=j)[0] for c in (1, 2) for m in range(1, j // 2 + 1)]
    duals += [perp(random_space(d, j, field, seed=d)) for d in range(1, j + 1)]
    routes = set()
    for W in duals:
        W = DualSpace(W.space)  # fresh memos
        m = mu(W)
        assert (tau_delta(W), m) == (oracle_tau_delta(W), oracle_mu(W)), W
        assert W._initial[1].mat.rows == oracle_ann_component(W, m).mat.rows, W
        routes.add(_route(W))
    assert routes == {0, 1, 2}


@pytest.mark.parametrize("field", [GF(101), GF(10007), QQ], ids=lambda F: F.name)
def test_perp_at_mu_generic_j_eliminates_once_and_writes_no_component_row(monkeypatch, field):
    # W = perp(V) keeps V as (Ann W)_j, so tau_delta, mu and the annihilator read V's own rungs:
    # no catalecticant is built or eliminated and none of W's rows is weighted or written.  At
    # mu_generic = j ((Ann V^perp)_{j-1} = R_{-1}V = 0) (Ann W)_mu is V itself, and the one
    # elimination is R_1V's, for tau(V), unless the down-rung that mu reads was built first.
    # A fresh dual of W's space has no V to read: there tau_delta's one elimination gives both,
    # and (Ann W)_j is the lazy kernel of W's weighted rows
    import binforms.waring as waring

    calls, hankels, real, real_hankel, seen = [], [], linalg.rref, waring.hankel, 0
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m) or real(m))
    monkeypatch.setattr(waring, "hankel", lambda *a: hankels.append(a) or real_hankel(*a))
    for j in (4, 8, 12):
        for d in range(1, j + 1):
            V = random_space(d, j, field, seed=d)
            V.mat.ints
            W, calls[:], hankels[:] = perp(V), [], []
            tau_delta(W), mu(W), annihilator(W)
            assert hankels == [] and len(calls) <= 1, (j, d)
            assert not {"rows", "_ints"} & set(vars(W.space.mat)) and "_weighted" not in vars(W), (j, d)
            other = DualSpace(W.space)
            other.space.mat.ints  # W's rows, a lazy kernel, are read (one kernel elimination) before counting
            calls.clear()
            if (tau_delta(other), mu(other)) != (d, j):  # mu_generic = j iff tau_delta = d = cod W
                assert _route(other), (j, d)
                continue
            seen += 1
            assert W._initial[1] is V
            comp = other._initial[1]
            assert len(calls) == 1 and comp.dim == j + 1 - other.dim
            assert not {"rows", "_ints"} & set(vars(comp.mat)), (j, d)  # no row written
            assert comp.mat.rows == oracle_ann_component(other, j).mat.rows  # written on this read
    assert seen >= 6


@pytest.mark.parametrize("field,j", [(GF(101), 10), (GF(10007), 12), (QQ, 8)], ids=lambda x: str(x))
def test_the_walk_from_j_minus_1_eliminates_no_catalecticant_again(monkeypatch, field, j):
    # from mu_generic = j-1 the walk starts at (Ann W)_{j-1} read off tau_delta's RREF: mu = j-1
    # costs that elimination alone, no catalecticant kernel; the echelon basis of its rows and one
    # down step of their |G| windows find (Ann W)_{j-2} = 0
    import binforms.waring as waring

    comps, calls, steps = [], [], []
    real, real_rref, real_echelon = waring._ann_component, linalg.rref, linalg.echelon_extend
    monkeypatch.setattr(waring, "_ann_component", lambda V, i: comps.append(i) or real(V, i))
    duals = [W for W in _at_j_minus_1(field, j, range(2)) if mu(DualSpace(W.space)) == j - 1]
    assert duals
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m) or real_rref(m))
    monkeypatch.setattr(linalg, "echelon_extend", lambda F, basis, rows: steps.append(len(rows := tuple(rows)))
                        or real_echelon(F, basis, rows))
    for W in duals:
        W, calls[:], steps[:] = DualSpace(W.space), [], []
        mu(W)
        comp = W._initial[1]
        assert comps == [] and len(calls) == 1
        assert steps == [W._catalecticant.nrows] * 2
        assert comp.degree == j - 1 and not {"rows", "_ints"} & set(vars(comp.mat))
        assert comp == oracle_ann_component(W, j - 1)


# ── coordinate-free invariants under GL_2 (a spot check) ─────────────────────


_GL2_CASES = [(GF(7), j) for j in (2, 4, 6)] + [(GF(101), j) for j in (5, 8, 10)] + [(QQ, j) for j in (4, 7, 10)]


@pytest.mark.parametrize("field,j", _GL2_CASES, ids=[f"{F.name}-j{j}" for F, j in _GL2_CASES])
def test_apolar_invariants_are_gl2_invariant(field, j):
    # W = perp(V) and W' = perp(g.V), for the swap x <-> y and a random g with
    # entries -3..3: mu, tau_delta and dim (Ann W)_mu do not depend on
    # coordinates, and when (Ann W)_mu is one form, neither does whether it
    # splits, nor the length and weights.  With dim >= 2 gad tries basis rows,
    # which are not coordinate-free, so those outcomes are left uncompared.
    rng = random.Random(f"gl2|{field.name}|{j}")
    spaces = [random_space(d, j, field, seed) for d in range(1, j + 2) for seed in range(2)]
    spaces += [perp(_planted(field, c, j, m, seed)[0].space).space
               for c in (1, 2) for m in range(1, j // 2 + 1) for seed in range(2)]
    split = 0
    for V in spaces:
        g = random_gl2(field, rng)
        W = perp(V)
        for h in (((0, 1), (1, 0)), g):
            W2 = perp(gl2_image(V, h))
            assert (mu(W2), tau_delta(W2)) == (mu(W), tau_delta(W)), (V, h)
            assert W2._initial[1].dim == W._initial[1].dim, (V, h)
            if W._initial[1].dim == 1:
                r, r2 = gad(W), gad(W2)
                assert type(r) is type(r2), (V, h)
                if isinstance(r, GAD):
                    split += 1
                    assert r.length == r2.length and sorted(r.weights) == sorted(r2.weights)
    assert split

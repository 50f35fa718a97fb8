"""Apolar duality: perp/annihilator, tau_delta, mu, GADs, generic-value formulas."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from binforms.errors import PreconditionError
from binforms.fields import GF, QQ
from binforms.cli import main
from binforms.forms import form, linear_power, monic, monomial
from binforms.hilbert import (
    enumerate_acceptable,
    h_tau,
    nose_tail,
    realize_staircase,
    tau_of_h,
)
from binforms.ideals import hilbert_function, level_ideal
from binforms.osequence import oseq
from binforms.spaces import full_space, random_space, span, zero_space
from binforms.waring import (
    GAD,
    Unsplit,
    _ann_component,
    annihilator,
    dual_from_json,
    dual_space,
    dual_to_json,
    gad,
    gad_locus_codim,
    mu,
    mu_generic,
    n_mu_tau,
    perp,
    random_dual,
    tau_delta,
)
from oracles import oracle_ann_component, oracle_mu, oracle_tau_delta


def _dual(field, degree, coeff_rows):
    return dual_space(field, degree, [form(field, degree, r) for r in coeff_rows])


def _planted(field, c, j, m, seed):
    """c random combinations of the j-th powers of m independent linear dual
    forms, and those forms."""
    rng = random.Random(f"planted|{field.name}|{c}|{j}|{m}|{seed}")
    scalar = lambda: rng.randrange(field.p) if field.p else rng.randint(-9, 9)
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
    assert W.contains(form(QQ, 3, [0, 1, -1, 0]))  # X^2 Y - X Y^2
    assert perp(full_space(QQ, 4)).dim == 0
    assert perp(zero_space(QQ, 4)).dim == 5


def test_annihilator_equals_level_ideal():
    V = span(QQ, 3, [form(QQ, 3, [0, 1, 1, 0]), monomial(QQ, 3, 0), monomial(QQ, 0, 3)])
    L = annihilator(perp(V))
    assert L == level_ideal(V)
    assert hilbert_function(L) == oseq([1, 2, 2, 1], 0)
    # the degree-2 component is spanned by x^2 + x y + y^2
    assert L.component(2).dim == 1
    assert L.component(2).contains(form(QQ, 2, [1, 1, 1]))


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
    assert dual_from_json(dual_to_json(W)) == W


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


# The catalecticant components and the bisected mu against the contract
# route and the linear scan: every degree 0..j+1, random and planted duals
# (planted ones have mu = c exactly), over F_101, over F_p with p = j+1 (the
# smallest characteristic the pairing allows) and over Q.
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
        for i in range(j + 2):
            assert _ann_component(W, i) == oracle_ann_component(W, i), (W, i)
        assert mu(W) == oracle_mu(W), W


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
        path.write_text(json.dumps(dual_to_json(W)))
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

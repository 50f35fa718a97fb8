"""Graded ideals: the three constructions, Betti data, splits, serialization."""

import json
import random
from dataclasses import fields

import pytest
from hypothesis import example, given, settings, strategies as st

from binforms import ideals, linalg
from binforms.errors import PreconditionError

from binforms.fields import GF, QQ
from binforms.forms import form, form_to_json, format_form, monomial, mul_form
from binforms.hilbert import _staircase_pairs, betti_partitions, enumerate_acceptable
from binforms.ideals import (
    GradedIdeal,
    ancestor_ideal,
    generated_ideal,
    generator_degrees,
    graded_ideal,
    hilbert_function,
    ideal_from_generators,
    ideal_from_json,
    ideal_to_json,
    is_ancestor_ideal_of,
    level_ideal,
    monomial_ideal,
    nu_min,
    relation_degrees,
    same_ideal,
    unit_form,
    zero_ideal,
)
from binforms.linalg import Matrix
from binforms.osequence import oseq
from binforms.waring import annihilator, perp
from binforms.spaces import (
    FormSpace,
    _shift_up_once,
    full_space,
    principal_space,
    random_space,
    shift,
    space_to_json,
    span,
    tau,
    zero_space,
)

from oracles import (
    brute_force_hilbert,
    common_factor_split,
    is_proper_osequence,
    oracle_down_dim,
    oracle_rref,
    oracle_shift_down_once,
    walked_halves,
)

FIELDS = [QQ, GF(101), GF(7)]


def _mono_space(field, degree, *exps):
    return span(field, degree, [monomial(field, degree - a, a) for a in exps])


# ----- worked examples -------------------------------------------------------


def test_ancestor_of_three_monomials():
    V = _mono_space(QQ, 4, 0, 1, 4)  # x^4, x^3 y, y^4
    I = ancestor_ideal(V)
    assert hilbert_function(I) == oseq([1, 2, 3, 3, 2, 1], 0)
    assert generator_degrees(I) == (3, 4)
    assert relation_degrees(I) == (7,)
    assert is_ancestor_ideal_of(I, 4)
    assert format_form(I.tail_gcd) == "1"
    # same ideal as (x^3, y^4), built through the generator path
    J = ideal_from_generators(QQ, [monomial(QQ, 3, 0), monomial(QQ, 0, 4)])
    assert same_ideal(I, J)


def test_ancestor_criterion_walks_the_degree():
    J = ideal_from_generators(QQ, [monomial(QQ, 3, 0), monomial(QQ, 0, 4)])
    assert [is_ancestor_ideal_of(J, j) for j in (3, 4, 5, 6)] == [
        False,
        True,
        True,
        False,
    ]


def test_power_of_maximal_ideal_is_no_ancestor():
    M3 = ideal_from_generators(QQ, [monomial(QQ, 3 - a, a) for a in range(4)])
    assert generator_degrees(M3) == (3, 3, 3, 3)
    assert relation_degrees(M3) == (4, 4, 4)
    assert not is_ancestor_ideal_of(M3, 3)


def test_principal_ideal():
    P = ideal_from_generators(QQ, [monomial(QQ, 2, 3)])
    assert generator_degrees(P) == (5,)
    assert relation_degrees(P) == ()
    assert hilbert_function(P) == oseq([1, 2, 3, 4], 5)
    assert nu_min(hilbert_function(P)) == 1
    assert is_ancestor_ideal_of(P, 5)
    f, Q = common_factor_split(P)
    assert format_form(f) == "x^2y^3"
    assert hilbert_function(Q) == oseq([], 0)
    assert format_form(Q.tail_gcd) == "1"


def test_level_ideal_of_cubic_space():
    V = span(
        QQ,
        3,
        [form(QQ, 3, [0, 1, 1, 0]), monomial(QQ, 3, 0), monomial(QQ, 0, 3)],
    )
    L = level_ideal(V)
    assert hilbert_function(L) == oseq([1, 2, 2, 1], 0)
    assert generator_degrees(L) == (2, 3)


def test_generated_ideal_of_three_monomials():
    V = _mono_space(QQ, 4, 0, 1, 4)
    G = generated_ideal(V)
    assert G.window_lo == 4
    assert G.component(3).is_zero
    assert hilbert_function(G) == oseq([1, 2, 3, 4, 2, 1], 0)
    assert generator_degrees(G) == (4, 4, 4)
    assert relation_degrees(G) == (5, 7)
    assert not is_ancestor_ideal_of(G, 4)


def test_split_off_linear_factor_over_f101():
    F = GF(101)
    U = random_space(4, 4, F, seed=7)
    xU = span(F, 5, [mul_form(monomial(F, 1, 0), b) for b in U.basis_forms()])
    I = ancestor_ideal(xU)
    assert hilbert_function(I) == oseq([1, 2, 3, 4, 3, 2], 1)
    f, J = common_factor_split(I)
    assert f.degree == 1
    assert hilbert_function(J) == oseq([1, 2, 3, 2, 1], 0)


def test_staircase_betti_numbers():
    S = ideal_from_generators(
        QQ,
        [
            monomial(QQ, 12, 0),
            monomial(QQ, 7, 5),
            monomial(QQ, 3, 10),
            monomial(QQ, 0, 14),
        ],
    )
    assert generator_degrees(S) == (12, 12, 13, 14)
    assert relation_degrees(S) == (17, 17, 17)


def test_zero_and_unit_ideals():
    for field in (GF(101), QQ):
        Z = zero_ideal(field)
        assert Z.is_zero
        assert hilbert_function(Z).is_zero_ideal
        assert generator_degrees(Z) == ()
        assert relation_degrees(Z) == ()
        assert nu_min(hilbert_function(Z)) == 0
        assert is_ancestor_ideal_of(Z, 5)
        assert same_ideal(Z, ancestor_ideal(zero_space(field, 3)))

    unit = ancestor_ideal(full_space(QQ, 2))
    assert hilbert_function(unit) == oseq([], 0)
    assert generator_degrees(unit) == (0,)
    assert relation_degrees(unit) == ()
    assert nu_min(hilbert_function(unit)) == 1


def test_level_ideal_of_zero_space_is_power_of_maximal_ideal():
    L = level_ideal(zero_space(QQ, 3))
    assert hilbert_function(L) == oseq([1, 2, 3, 4], 0)
    assert generator_degrees(L) == (4, 4, 4, 4, 4)


@pytest.mark.parametrize("field", [GF(101), QQ], ids=lambda F: F.name)
@pytest.mark.parametrize("j", range(7))
def test_level_ideal_of_zero_space_is_r_above_j(field, j):
    # the j+1 zero components below the window are dropped: only R_{j+1} is kept
    want = GradedIdeal(field, j + 1, j + 1, (full_space(field, j + 1),), unit_form(field))
    assert level_ideal(zero_space(field, j)) == want


def test_nu_min_values():
    assert nu_min(oseq([1, 1], 0)) == 2
    assert nu_min(oseq([1, 2, 3, 3, 2, 1], 0)) == 2
    assert nu_min(oseq([1, 2, 3], 3)) == 1
    assert nu_min(oseq([1, 2, 3, 4, 3, 2], 1)) == 2


def test_validating_constructor_rejects_unclosed_components():
    comps = [span(QQ, 2, [monomial(QQ, 2, 0)]), zero_space(QQ, 3)]
    with pytest.raises(PreconditionError):
        graded_ideal(QQ, 2, comps, unit_form(QQ))
    # R_1<x^2> = <x^3, x^2 y> is nonzero but not inside <x^3>
    comps = [span(QQ, 2, [monomial(QQ, 2, 0)]), span(QQ, 3, [monomial(QQ, 3, 0)])]
    with pytest.raises(PreconditionError):
        graded_ideal(QQ, 2, comps, monomial(QQ, 2, 0))
    # a window top whose up-shift escapes the tail's principal block
    with pytest.raises(PreconditionError):
        graded_ideal(QQ, 2, [full_space(QQ, 2)], monomial(QQ, 1, 0))


def test_negative_relation_count_is_an_internal_error():
    # <x> in degree 1 and <y^2> in degree 2 is no ideal; only the unchecked
    # assembly builds it, and its Betti count goes negative at degree 3
    F = GF(101)
    I = ideals._assemble_ideal(
        F, 1, [span(F, 1, [form(F, 1, [1, 0])]), span(F, 2, [form(F, 2, [0, 0, 1])])], unit_form(F))
    with pytest.raises(RuntimeError, match="postcondition.*relation count.*degree 3"):
        relation_degrees(I)


def test_generators_all_zero_or_of_another_field():
    F = GF(101)
    assert ideal_from_generators(F, [form(F, 2, [0, 0, 0]), form(F, 0, [0])]) == zero_ideal(F)
    with pytest.raises(PreconditionError, match="generator field mismatch"):
        ideal_from_generators(F, [form(F, 1, [1, 0]), form(QQ, 1, [0, 1])])


def test_same_ideal_is_false_across_fields():
    assert not same_ideal(generated_ideal(full_space(GF(101), 1)), generated_ideal(full_space(QQ, 1)))
    assert not same_ideal(zero_ideal(GF(101)), zero_ideal(QQ))


def test_json_roundtrip():
    V = _mono_space(GF(101), 4, 0, 1, 4)
    for I in (ancestor_ideal(V), generated_ideal(V), zero_ideal(GF(101))):
        data = json.loads(json.dumps(ideal_to_json(I)))
        assert same_ideal(ideal_from_json(data), I)


@pytest.mark.parametrize("F", [GF(101), QQ], ids=lambda F: F.name)
def test_an_all_zero_window_starts_the_tail_above_it(F):
    # x.M three ways: a window of zero components, an empty window, the component itself
    x = form(F, 1, [1, 0])
    zero = {str(i): space_to_json(zero_space(F, i)) for i in (0, 1)}
    block = {"2": space_to_json(principal_space(x, 2))}
    encodings = [([0, 1], zero), ([2, 1], {}), ([2, 2], block)]
    ideals = [ideal_from_json(json.loads(json.dumps(
        {"field": F.name, "window": w, "components": c, "tailGcd": form_to_json(x)})))
        for w, c in encodings]
    for I in ideals:
        assert hilbert_function(I) == oseq([1, 2], 1)
        assert same_ideal(I, ideals[-1])


@pytest.mark.parametrize("F", [GF(101), QQ], ids=lambda F: F.name)
@pytest.mark.parametrize("tail_degree", [0, 1])
@pytest.mark.parametrize("window", [[1, 0], [1, 1]], ids=["empty-window", "nonempty-window"])
def test_a_zero_tail_gcd_is_refused(F, tail_degree, window):
    # it was read as an ideal with dim I_3 = 4 but I_3 = 0, H = 1,2(0) and generators in
    # degrees (2, 2, 2), or refused as a window top inconsistent with the tail
    zero = form(F, tail_degree, [0] * (tail_degree + 1))
    comps = [full_space(F, i) for i in range(window[0], window[1] + 1)]
    data = {"field": F.name, "window": window, "components": {str(c.degree): space_to_json(c) for c in comps},
            "tailGcd": form_to_json(zero)}
    with pytest.raises(PreconditionError, match="tail gcd is the zero form"):
        ideal_from_json(json.loads(json.dumps(data)))
    with pytest.raises(PreconditionError, match="tail gcd is the zero form"):
        graded_ideal(F, window[0], comps, zero)


@pytest.mark.parametrize("window", [[5, 2], [2, 0], [-1, 0], [-1, -2]])
def test_json_window_out_of_order_or_below_zero_is_refused(window):
    data = {**ideal_to_json(generated_ideal(full_space(QQ, 1))), "window": window}
    with pytest.raises(PreconditionError, match="ideal window"):
        ideal_from_json(data)


# ----- randomized invariants -------------------------------------------------


def random_space_strategy():
    def build(j, d_offset, field, seed):
        d = 1 + d_offset % (j + 1)
        return random_space(d, j, field, seed)

    return st.builds(
        build,
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=100),
        st.sampled_from(FIELDS),
        st.integers(min_value=0, max_value=10**6),
    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=100),
    st.sampled_from([GF(101), QQ]),
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
)
def test_assembled_ideals_pass_full_validation(j, d_offset, field, seed, times_x):
    # the ladder ideals and the annihilator skip graded_ideal's checks because
    # they are closed under R_1 by construction; the checks agree
    V = random_space(1 + d_offset % (j + 1), j, field, seed)
    if times_x:  # a common factor, so that the tail gcd is not 1
        V = span(field, j + 1, [mul_form(monomial(field, 1, 0), f) for f in V.basis_forms()])
    for I in (ancestor_ideal(V), level_ideal(V), generated_ideal(V), annihilator(perp(V))):
        assert graded_ideal(I.field, I.window_lo, I.components, I.tail_gcd) == I


@settings(max_examples=40, deadline=None)
@given(random_space_strategy())
def test_ancestor_matches_brute_force(V):
    I = ancestor_ideal(V)
    j = V.degree
    top = I.window_hi + 2
    dims_above = brute_force_hilbert(V, top)
    H = hilbert_function(I)
    for i in range(top + 1):
        if i >= j:
            assert H.value(i) == dims_above[i]
        else:
            assert H.value(i) == (i + 1) - oracle_down_dim(V, j - i)


@settings(max_examples=40, deadline=None)
@given(random_space_strategy())
def test_betti_bookkeeping(V):
    for I in (ancestor_ideal(V), generated_ideal(V)):
        gens = generator_degrees(I)
        rels = relation_degrees(I)
        assert len(rels) == len(gens) - 1
        # dim I_i is determined by gens and rels alone
        for i in range(I.window_hi + 3):
            expect = sum(max(0, i - a + 1) for a in gens) - sum(
                max(0, i - b + 1) for b in rels
            )
            assert I.dim(i) == expect


@settings(max_examples=40, deadline=None)
@given(random_space_strategy())
def test_ancestor_generators_count_tau(V):
    I = ancestor_ideal(V)
    gens = generator_degrees(I)
    j = V.degree
    assert len(gens) == tau(V)
    assert all(a <= j for a in gens)
    H = hilbert_function(I)
    assert is_proper_osequence(H)
    assert nu_min(H) == tau(V)
    mu = H.order()
    for i in range(mu, j + 1):
        cumulative = sum(1 for a in gens if a <= i)
        assert cumulative == tau(shift(V, i - j))


@settings(max_examples=30, deadline=None)
@given(random_space_strategy())
def test_level_agrees_with_ancestor_up_to_j(V):
    A = ancestor_ideal(V)
    L = level_ideal(V)
    j = V.degree
    for i in range(j + 1):
        assert A.component(i) == L.component(i)
    assert L.component(j + 1).is_full
    HL = hilbert_function(L)
    HA = hilbert_function(A)
    assert all(HL.value(i) == HA.value(i) for i in range(j + 1))
    assert HL.value(j + 1) == 0


@settings(max_examples=30, deadline=None)
@given(random_space_strategy())
def test_generated_ideal_equals_generator_path(V):
    G = generated_ideal(V)
    J = ideal_from_generators(V.field, list(V.basis_forms()))
    assert same_ideal(G, J)
    assert is_ancestor_ideal_of(G, V.degree) == same_ideal(G, ancestor_ideal(V))


def _random_form(F, degree, rng):
    return form(F, degree, [F.random_scalar(rng) for _ in range(degree + 1)])


@pytest.mark.parametrize("F", [GF(101), QQ], ids=lambda F: F.name)
@pytest.mark.parametrize("kind", ["random", "principal", "planted"])
@pytest.mark.parametrize("d,j,seed", [(1, 4, 0), (2, 6, 1), (3, 7, 2), (4, 5, 3)])
def test_generators_of_a_space_give_its_generated_ideal(F, kind, d, j, seed):
    # one degree of generators: the ideal is generated_ideal's, window included
    V = _space_of_kind(F, kind, d, j, seed)
    assert ideal_from_generators(F, V.basis_forms()) == generated_ideal(V)


def _space_of_kind(F, kind, d, j, seed):
    """A random (d, j) space, a block f.R_{d-1}, or a random (d, j - 2) space times a planted quadratic."""
    rng = random.Random(f"gens-of-space|{F.name}|{kind}|{d}|{j}|{seed}")
    if kind == "random":
        return random_space(d, j, F, seed)
    if kind == "principal":  # deg f = j + 1 - d
        return principal_space(_random_form(F, j + 1 - d, rng), j)
    g, U = _random_form(F, 2, rng), random_space(min(d, j - 1), j - 2, F, seed)
    return span(F, j, [mul_form(g, u) for u in U.basis_forms()])


@pytest.mark.parametrize("F", [GF(101), QQ], ids=lambda F: F.name)
@pytest.mark.parametrize("kind", ["random", "principal", "planted"])
@pytest.mark.parametrize("d,j,seed", [(1, 4, 0), (2, 6, 1), (3, 7, 2), (4, 5, 3)])
def test_components_above_the_window_are_all_monomial_multiples(F, kind, d, j, seed):
    # above its window a component is the block (tail_gcd).R_s built from (tail_gcd, i) alone;
    # it must be the span of every monomial multiple of the window's top (and, for the ancestor
    # and generated ideals, of V)
    V = _space_of_kind(F, kind, d, j, seed)
    for I, also in ((ancestor_ideal(V), [V]), (level_ideal(V), []), (generated_ideal(V), [V])):
        for W in (I.component(I.window_hi), *also):
            for i in range(I.window_hi + 1, I.window_hi + 4):
                assert I.component(i).mat.rows == _oracle_component(F, W.basis_forms(), i), (W.degree, i)


def _oracle_component(F, gens, i):
    """The RREF basis of (gens)_i: every generator times every monomial of degree i - its own."""
    rows = tuple(
        mul_form(g, monomial(F, i - g.degree - a, a)).coeffs
        for g in gens if g.degree <= i for a in range(i - g.degree + 1)
    )
    red, rank, _ = oracle_rref(Matrix(F, rows, i + 1))
    return red.rows[:rank]


def _mixed_generators(F, seed):
    """One random generator in the lowest degree and one to three above it, half of the lists
    times a planted common factor (so the tail gcd is not 1).  One generator never fills a
    degree, so the first one above it is (with high probability) a new one."""
    rng = random.Random(f"mixed-gens|{F.name}|{seed}")
    lo = rng.randint(1, 3)
    degrees = [lo] + [lo + rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    gens = [_random_form(F, e, rng) for e in degrees]
    if seed % 2:
        g = _random_form(F, 1 + seed % 3, rng)
        gens = [mul_form(g, f) for f in gens]
    return gens


def _first_oracle_mismatch(F, gens):
    """The first degree through window_hi + 2 where ideal_from_generators differs from the
    span of all monomial multiples, or None."""
    I = ideal_from_generators(F, gens)
    return next(
        (i for i in range(I.window_hi + 3) if I.component(i).mat.rows != _oracle_component(F, gens, i)),
        None,
    )


MIXED = [(F, seed) for F in (GF(101), QQ) for seed in range(8)]


@pytest.mark.parametrize("F,seed", MIXED, ids=lambda v: getattr(v, "name", v))
def test_mixed_degree_generators_match_all_monomial_multiples(F, seed):
    gens = _mixed_generators(F, seed)
    assert _first_oracle_mismatch(F, gens) is None
    # built closed under R_1, and the validating constructor agrees
    I = ideal_from_generators(F, gens)
    assert graded_ideal(F, I.window_lo, I.components, I.tail_gcd) == I


def test_generator_oracle_catches_dropped_new_degree_generators(monkeypatch):
    # without the span of each new degree's generators, only the lowest degree's would count
    monkeypatch.setattr(ideals, "space_sum", lambda a, b: a)
    assert all(_first_oracle_mismatch(F, _mixed_generators(F, seed)) is not None for F, seed in MIXED)


def _staircases(top):
    """The exponents of every staircase ideal with d <= j <= top."""
    for j in range(1, top + 1):
        for d in range(1, j + 1):
            for H in enumerate_acceptable(d, j):
                A, B, _, _ = betti_partitions(H, d, j)
                yield _staircase_pairs(A, B, j)


def _check_monomial_ideal(F, pairs):
    """`monomial_ideal` against `ideal_from_generators`, windows included, and each `_up` memo it set
    against the elimination on a memo-free copy of its component."""
    I = monomial_ideal(F, pairs)
    assert I == ideal_from_generators(F, [monomial(F, p, q) for p, q in pairs]), pairs
    for comp in I.components[:-1]:
        assert comp.__dict__["_up"] == _shift_up_once(FormSpace(F, comp.degree, comp.mat)), (pairs, comp.degree)


@pytest.mark.parametrize("F,top", [(GF(101), 10), (GF(2), 10), (QQ, 7)], ids=lambda v: getattr(v, "name", v))
def test_monomial_ideal_of_every_staircase_matches_its_generators(F, top):
    for pairs in _staircases(top):
        _check_monomial_ideal(F, pairs)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=6),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.sampled_from([QQ, GF(101), GF(2)]),
)
@example([(0, 0)], (0, 0), QQ)  # the unit ideal
@example([(2, 0), (2, 0), (1, 2), (3, 1)], (0, 2), GF(101))  # duplicate, redundant, y^2 in the tail gcd
def test_monomial_ideal_matches_its_generators(exponents, shift_by, F):
    # redundant and duplicate pairs come up on their own; the common shift puts x^a y^b in the tail gcd
    _check_monomial_ideal(F, [(p + shift_by[0], q + shift_by[1]) for p, q in exponents])


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=10**6),
)
def test_common_factor_split_inverts_multiplication(d, j, c, seed):
    F = GF(101)
    d = min(d, j + 1)
    U = random_space(d, j, F, seed)
    g = monomial(F, c - c // 2, c // 2)
    gU = span(F, j + c, [mul_form(g, b) for b in U.basis_forms()])
    I = ancestor_ideal(gU)
    assert I.tail_gcd.degree >= c
    f, J = common_factor_split(I)
    assert J.tail_gcd.degree == 0
    HI, HJ = hilbert_function(I), hilbert_function(J)
    cc = f.degree
    for i in range(J.window_hi + 2):
        assert HJ.value(i) == HI.value(i + cc) - cc
    # multiplying back gives the original components
    for i in range(J.window_lo, J.window_hi + 1):
        comp = J.component(i)
        lifted = span(
            F, i + cc, [mul_form(f, b) for b in comp.basis_forms()]
        )
        assert lifted == I.component(i + cc)


@settings(max_examples=25, deadline=None)
@given(random_space_strategy())
def test_ideal_json_roundtrip(V):
    I = ancestor_ideal(V)
    data = json.loads(json.dumps(ideal_to_json(I)))
    assert same_ideal(ideal_from_json(data), I)


# ----- ladder-built ideals against independent recomputation ---------------------


@pytest.mark.parametrize("field", [GF(101), QQ])
@pytest.mark.parametrize("d,j,seed", [(2, 6, 0), (3, 7, 1), (5, 8, 2), (1, 4, 3)])
def test_ladder_ideals_match_oracles(field, d, j, seed):
    V = random_space(d, j, field, seed)
    A = ancestor_ideal(V)
    L, G = level_ideal(V), generated_ideal(V)  # read the ladder A filled
    top = A.window_hi + 4
    above = brute_force_hilbert(V, top)
    for i in range(top + 1):
        if i < j:
            assert A.dim(i) == L.dim(i) == oracle_down_dim(V, j - i)
            assert G.dim(i) == 0
        else:
            assert A.dim(i) == G.dim(i) == (i + 1) - above[i]
    # above the window every component is the tail gcd's principal block
    for I in (A, L, G):
        for i in range(I.window_hi + 1, I.window_hi + 5):
            assert I.component(i) == principal_space(I.tail_gcd, i)
    # a fresh, unfilled copy of V gives the same ideals and Betti data
    fresh = FormSpace(V.field, V.degree, V.mat)
    assert ancestor_ideal(fresh) == A
    assert generator_degrees(ancestor_ideal(fresh)) == generator_degrees(A)
    assert relation_degrees(ancestor_ideal(fresh)) == relation_degrees(A)



def _oracle_down_chain(V):
    """[V, R_{-1}V, ..]'s matrices by plain eliminations, to degree 0 or the last nonzero rung."""
    chain = [V.mat]
    while len(chain) <= V.degree and (m := oracle_shift_down_once(chain[-1])).rows:
        chain.append(m)
    return chain


def _walk_cases(F):
    """Spaces whose down-walk reaches degree 0 nonzero (R_j as a block, a span, f.R_j with deg f = 0),
    stops at a zero rung pinned off R_1V (random, small dim), at once (one form, a block f.R_0), or
    after one or more kernel rungs (R_1U, R_2U, a planted factor times R_1U)."""
    rng = random.Random(F.name)
    forms = lambda n: [form(F, 6, [rng.randint(-9, 9) for _ in range(7)]) for _ in range(n)]
    U = random_space(2, 5, F, 0)
    return [
        full_space(F, 6),
        span(F, 6, [monomial(F, 6 - b, b) for b in range(7)]),
        principal_space(form(F, 0, [3]), 6),
        random_space(2, 6, F, 1),
        random_space(3, 9, F, 2),
        span(F, 6, forms(1)),
        shift(U, 1),
        shift(U, 2),
        span(F, 8, [mul_form(form(F, 2, [1, 1, 2]), g) for g in shift(U, 1).basis_forms()]),
    ]


@pytest.mark.parametrize("field", FIELDS, ids=lambda F: F.name)
def test_down_walks_stop_at_the_first_zero_rung(monkeypatch, field):
    # each ideal walks V's down-rungs once, to degree 0 or to its first zero rung: one
    # `_shift_down_once` per nonzero rung above the bottom, and none on a zero space.  The
    # generated ideal builds no rung below V's R_{-1}V, which `_fills_next` reads when tau
    # builds R_1V (2 dim V >= j + 2, V no block); above V only R_1V's down step runs, for
    # the same read by the up-walk
    import binforms.spaces as spaces_mod

    built = []
    real = spaces_mod._shift_down_once
    monkeypatch.setattr(spaces_mod, "_shift_down_once", lambda V: built.append(V) or real(V))
    for V in _walk_cases(field):
        j, chain = V.degree, _oracle_down_chain(V)
        steps = len(chain) - (chain[-1].ncols == 1)  # a walk that reaches degree 0 stops there
        for make, walks in ((ancestor_ideal, True), (level_ideal, True), (generated_ideal, False)):
            del built[:]
            top = FormSpace(field, j, V.mat)
            I = make(top)
            below = [W for W in built if W.degree <= j]
            assert not any(W.is_zero for W in built), make.__name__
            assert all(W.degree == j + 1 for W in built if W.degree > j), make.__name__
            fills = 2 * V.dim >= j + 2 and top._principal is None
            assert len(below) == (steps if walks else fills), (make.__name__, j, V.dim)
            assert walks or all(W is top for W in below), (j, V.dim)
            assert I.window_lo == (j + 1 - len(chain) if walks else j)
            for s, m in enumerate(chain if walks else chain[:1]):
                assert I.component(j - s).mat == m
    assert {len(_oracle_down_chain(V)) for V in _walk_cases(field)} >= {1, 2, 3, 7}


def test_a_zero_rung_pinned_off_r1v_ends_the_walk(monkeypatch):
    # dim R_1V = 2 dim V pins R_{-1}V = 0: the walk builds it from R_1V, which tau built, with no
    # kernel and no echelon step
    steps = []
    real = linalg.echelon_extend
    monkeypatch.setattr(linalg, "echelon_extend", lambda *args: steps.append(args) or real(*args))
    V = random_space(2, 6, GF(101), 1)
    ancestor_ideal(V)
    assert V._up.dim == 2 * V.dim and V._down.is_zero and "_kernel" not in vars(V._down)
    assert steps == []


def _assert_dims_read_off(I):
    top = (0 if I.is_zero else I.window_hi) + 3
    assert [I.dim(i) for i in range(top + 1)] == [
        I.component(i).dim for i in range(top + 1)
    ]
    with pytest.raises(PreconditionError):
        I.dim(-1)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=100),
    st.sampled_from([GF(101), QQ]),
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
)
def test_dim_matches_the_component(j, d_offset, field, seed, times_x):
    # dim reads the window and the tail degree; component builds the space
    V = random_space(1 + d_offset % (j + 1), j, field, seed)
    if times_x:  # a common factor, so that the tail gcd is not 1
        V = span(field, j + 1, [mul_form(monomial(field, 1, 0), f) for f in V.basis_forms()])
    for I in (ancestor_ideal(V), level_ideal(V), generated_ideal(V), annihilator(perp(V))):
        _assert_dims_read_off(I)


@pytest.mark.parametrize("field", [GF(101), QQ])
def test_dim_matches_the_component_on_edge_cases(field):
    import binforms.closure as closure
    from binforms.hilbert import realize_staircase

    _assert_dims_read_off(zero_ideal(field))
    _assert_dims_read_off(level_ideal(zero_space(field, 3)))
    _assert_dims_read_off(ancestor_ideal(principal_space(form(field, 2, [1, 0, 1]), 5)))
    # build_h's walks edit one component list; each half is assembled by the
    # spy as build_n and build_t assemble theirs
    _, source = realize_staircase(oseq([1], 2), 4, 5, field)
    with walked_halves() as halves:
        tr = closure.build_h(source, oseq([1, 2, 3, 4, 4, 2], 0), 5)
    assert tr.steps and len(halves) == 2
    for I in [source, tr.final_ideal] + [half for _, half in halves]:
        _assert_dims_read_off(I)


def test_ideal_dataclass_fields_unchanged():
    assert [f.name for f in fields(GradedIdeal)] == [
        "field", "window_lo", "window_hi", "components", "tail_gcd"
    ]


def test_ideal_assembly_reads_the_tail_off_the_memo(monkeypatch):
    # the tail gcd is the stable top's principal-block memo: no gcd chain runs
    import binforms.forms as forms_mod
    import binforms.ideals as ideals_mod
    import binforms.spaces as spaces_mod

    def no_gcd_chain(*args):
        raise AssertionError("ideal assembly ran a gcd chain")

    for mod, name in ((spaces_mod, "gcd_of_space"), (spaces_mod, "gcd_rows"),
                      (forms_mod, "gcd_rows")):
        monkeypatch.setattr(mod, name, no_gcd_chain)
    F = GF(101)
    for field in (F, QQ):
        for d, j, seed in ((1, 4, 0), (3, 7, 1), (5, 6, 2)):
            V = random_space(d, j, field, seed)
            for I in (ancestor_ideal(V), generated_ideal(V), level_ideal(V)):
                assert forms_mod.monic(I.tail_gcd) == I.tail_gcd
    f = form(F, 2, [0, 1, 3])
    I = ideal_from_generators(F, [mul_form(f, monomial(F, 2, 0)), mul_form(f, monomial(F, 0, 3))])
    assert I.tail_gcd == f
    monkeypatch.setattr(ideals_mod, "_stable_top", lambda V: 0)  # a window that stops at V
    with pytest.raises(RuntimeError, match="before its components stabilized"):
        ancestor_ideal(random_space(3, 7, F, 4))


@pytest.mark.parametrize("field", [GF(101), QQ], ids=lambda F: F.name)
@pytest.mark.parametrize("d,j,seed", [(1, 4, 0), (3, 7, 1), (5, 6, 2), (6, 9, 3)])
def test_ancestor_betti_counts_build_no_block_above_the_window(monkeypatch, field, d, j, seed):
    # The counts read dimensions only: they run no elimination and write no block's rows.
    # Above the window I_{hi+1} is a block (tail_gcd).R_s, built from (f, s) in O(1) with
    # its rows unwritten: the counts may read it, never build its basis.
    import binforms.linalg as linalg_mod
    import binforms.spaces as spaces_mod

    I = ancestor_ideal(random_space(d, j, field, seed))
    want = generator_degrees(I), relation_degrees(I)
    I = ancestor_ideal(random_space(d, j, field, seed))
    work = []
    with monkeypatch.context() as m:
        m.setattr(linalg_mod, "rref", lambda mat: work.append("rref"))
        m.setattr(spaces_mod, "_block_rows", lambda f, s: work.append("block rows") or iter(()))
        got = generator_degrees(I), relation_degrees(I)
    assert work == [] and got == want
    assert I.component(I.window_hi + 1).dim == I.dim(I.window_hi + 1)

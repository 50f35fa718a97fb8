"""Graded ideals: the three constructions, Betti data, splits, serialization."""

import json
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from binforms.errors import PreconditionError

from binforms.fields import GF, QQ
from binforms.forms import form, format_form, monomial, mul_form
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
    nu_min,
    relation_degrees,
    same_ideal,
    unit_form,
    zero_ideal,
)
from binforms.osequence import oseq
from binforms.spaces import (
    FormSpace,
    full_space,
    principal_space,
    random_space,
    shift,
    span,
    tau,
    zero_space,
)

from oracles import (
    brute_force_hilbert,
    common_factor_split,
    is_proper_osequence,
    oracle_down_dim,
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
    Z = zero_ideal(QQ)
    assert Z.is_zero
    assert hilbert_function(Z).is_zero_ideal
    assert generator_degrees(Z) == ()
    assert relation_degrees(Z) == ()
    assert nu_min(hilbert_function(Z)) == 0
    assert is_ancestor_ideal_of(Z, 5)
    assert same_ideal(Z, ancestor_ideal(zero_space(QQ, 3)))

    unit = ancestor_ideal(full_space(QQ, 2))
    assert hilbert_function(unit) == oseq([], 0)
    assert generator_degrees(unit) == (0,)
    assert relation_degrees(unit) == ()
    assert nu_min(hilbert_function(unit)) == 1


def test_level_ideal_of_zero_space_is_power_of_maximal_ideal():
    L = level_ideal(zero_space(QQ, 3))
    assert hilbert_function(L) == oseq([1, 2, 3, 4], 0)
    assert generator_degrees(L) == (4, 4, 4, 4, 4)


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


def test_json_roundtrip():
    V = _mono_space(GF(101), 4, 0, 1, 4)
    for I in (ancestor_ideal(V), generated_ideal(V), zero_ideal(GF(101))):
        data = json.loads(json.dumps(ideal_to_json(I)))
        assert same_ideal(ideal_from_json(data), I)


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


def test_ideal_dataclass_fields_unchanged():
    assert [f.name for f in fields(GradedIdeal)] == [
        "field", "window_lo", "window_hi", "components", "tail_gcd"
    ]

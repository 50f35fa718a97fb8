import random
from dataclasses import fields
from fractions import Fraction

import pytest

from binforms.errors import PreconditionError
from binforms.fields import GF, QQ
from binforms.forms import form, monic, mul_form, monomial
from binforms.ideals import ancestor_ideal
from binforms.linalg import Matrix
from binforms.spaces import (
    FormSpace,
    contained,
    equivalent,
    full_space,
    gcd_of_space,
    principal_space,
    random_space,
    shift,
    space_from_json,
    space_sum,
    space_to_json,
    span,
    tau,
    zero_space,
)

from oracles import oracle_down_dim

F101 = GF(101)


def V_example(field=QQ):
    # <x^4, x^3 y, y^4>
    return span(field, 4, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1]])


def test_shift_down_paper_example():
    got = shift(V_example(), -1)
    assert got == span(QQ, 3, [[1, 0, 0, 0]])  # <x^3>


def test_shift_up_full():
    assert shift(full_space(QQ, 3), 1) == full_space(QQ, 4)


def test_shift_down_to_zero():
    V = span(QQ, 3, [[1, 0, 0, 0], [0, 0, 0, 1]])  # <x^3, y^3>
    assert shift(V, -1).is_zero


def test_shift_degree_underflow():
    with pytest.raises(PreconditionError):
        shift(span(QQ, 1, [[1, 0]]), -2)


def test_tau_paper_example():
    assert tau(V_example()) == 2


def test_tau_degenerate():
    assert tau(full_space(QQ, 5)) == 1
    assert tau(zero_space(QQ, 5)) == 0


def test_tau_two_monomials():
    V = span(QQ, 3, [[1, 0, 0, 0], [0, 0, 0, 1]])
    assert tau(V) == 2


def test_gcd_of_space_monomials():
    V = span(QQ, 3, [[0, 1, 0, 0], [0, 0, 1, 0]])  # x^2 y, x y^2
    assert gcd_of_space(V) == monomial(QQ, 1, 1)


def test_gcd_of_space_coprime():
    assert gcd_of_space(V_example()).degree == 0


def test_gcd_of_space_single():
    V = span(QQ, 3, [[1, 1, 0, 0]])  # x^3 + x^2 y
    assert gcd_of_space(V) == form(QQ, 3, [1, 1, 0, 0])


def test_equivalent_one_shift():
    V = V_example()
    assert equivalent(V, shift(V, 1))
    assert equivalent(shift(V, 1), V)


def test_equivalent_two_shifts_fails():
    V = V_example()
    W = shift(V, 2)
    assert W.is_full  # R_2 V = R_6
    assert not equivalent(V, W)


def test_equivalent_reflexive_and_zero():
    V = V_example()
    assert equivalent(V, V)
    assert equivalent(zero_space(QQ, 3), zero_space(QQ, 5))
    assert not equivalent(V, zero_space(QQ, 4))


def test_principal_space():
    f = form(QQ, 2, [1, 0, -1])
    P = principal_space(f, 4)
    assert P.dim == 3
    for b in P.basis_forms():
        pass
    assert principal_space(f, 1).is_zero


def test_random_space_deterministic():
    a = random_space(3, 5, F101, seed=42)
    b = random_space(3, 5, F101, seed=42)
    c = random_space(3, 5, F101, seed=43)
    assert a == b and a != c and a.dim == 3


def test_random_space_degenerate():
    assert random_space(0, 4, QQ, 1).is_zero
    assert random_space(5, 4, QQ, 1) == full_space(QQ, 4)


def test_random_space_generic_tau():
    # generic tau = min{d, j+2-d} = 3 for (d,j) = (4,5)
    hits = sum(1 for s in range(20) if tau(random_space(4, 5, F101, s)) == 3)
    assert hits >= 18


def test_json_roundtrip():
    V = V_example()
    assert space_from_json(space_to_json(V)) == V
    W = random_space(2, 4, F101, 9)
    assert space_from_json(space_to_json(W)) == W


# ----- coercion at the boundary ---------------------------------------------------


@pytest.mark.parametrize("field", [QQ, GF(7), F101], ids=lambda F: F.name)
def test_span_raw_rows_match_form_route(field):
    raw = [
        [3, -1, 0, 250],
        [Fraction(-2, 3), 0, Fraction(5, 2), -8],
        [0, 0, 0, 0],
        [-1, 14, Fraction(9), 1],
    ]
    for k in range(1, len(raw) + 1):
        rows = raw[:k]
        got = span(field, 3, rows)
        assert got == span(field, 3, [form(field, 3, r) for r in rows])
        assert got == span(field, 3, [form(QQ, 3, r) for r in rows])  # coerced too
        want = Fraction if field.p is None else int
        assert all(type(c) is want for r in got.mat.rows for c in r)
        if field.p:
            assert all(0 <= c < field.p for r in got.mat.rows for c in r)


def test_span_rejects_denominator_divisible_by_p():
    with pytest.raises(PreconditionError):
        span(GF(7), 1, [[Fraction(1, 7), 1]])
    with pytest.raises(PreconditionError):
        span(GF(7), 1, [[1, 0], [Fraction(3, 14), 2]])


@pytest.mark.parametrize("field", [QQ, GF(2), F101], ids=lambda F: F.name)
def test_full_space_equals_span_of_monomials(field):
    for j in range(8):
        full = full_space(field, j)
        assert full == span(field, j, [monomial(field, j - a, a) for a in range(j + 1)])
        assert full.is_full
        assert all(type(c) is type(field.one) for r in full.mat.rows for c in r)


# ----- randomized invariants ----------------------------------------------------


def random_cases(n=60, seed=11):
    rng = random.Random(seed)
    for _ in range(n):
        j = rng.randint(1, 8)
        d = rng.randint(0, j + 1)
        yield random_space(d, j, F101, rng.random())


def test_dimension_identity_updown():
    # dim R_{-1}V + dim R_1 V = 2 dim V
    for V in random_cases():
        if V.degree == 0:
            continue
        assert shift(V, -1).dim + shift(V, 1).dim == 2 * V.dim


def test_tau_bound_and_monotone():
    for V in random_cases(40, seed=5):
        t = tau(V)
        d = V.dim
        if 0 < d <= V.degree + 1:
            assert t <= min(d, V.degree + 2 - d)
        # tau never increases under shifts in either direction
        assert tau(shift(V, 1)) <= t or V.is_zero
        if V.degree >= 1:
            assert tau(shift(V, -1)) <= t


def test_updown_containments():
    # R_1(R_{-1}V) <= V <= R_{-1}(R_1 V)
    for V in random_cases(30, seed=17):
        if V.degree == 0:
            continue
        up_of_down = shift(shift(V, -1), 1)
        down_of_up = shift(shift(V, 1), -1)
        assert space_sum(up_of_down, V) == V          # containment one way
        assert contained(V, down_of_up)               # and the other


def test_same_sign_composition():
    for V in random_cases(20, seed=23):
        if V.degree < 2:
            continue
        assert shift(shift(V, 1), 1) == shift(V, 2)
        assert shift(shift(V, -1), -1) == shift(V, -2)


def test_equivalence_dimension_criterion():
    # V ~ R_s V iff dim R_{s+1} V = dim V + (s+1) tau(V), for s >= 0
    rng = random.Random(31)
    for _ in range(40):
        j = rng.randint(1, 7)
        d = rng.randint(1, j + 1)
        V = random_space(d, j, F101, rng.random())
        t = tau(V)
        for s in range(0, 3):
            W = shift(V, s)
            pred = shift(V, s + 1).dim == V.dim + (s + 1) * t
            assert equivalent(V, W) == pred


# ----- the memoized shift ladder ------------------------------------------------


def _multiples(V, s):
    """Span of every degree-s monomial multiple of V's basis, built directly."""
    F = V.field
    gens = [mul_form(monomial(F, s - a, a), b) for b in V.basis_forms() for a in range(s + 1)]
    return span(F, V.degree + s, gens)


@pytest.mark.parametrize("field", [F101, QQ])
@pytest.mark.parametrize("d,j,seed", [(1, 5, 0), (3, 6, 1), (4, 7, 2), (6, 9, 3), (2, 8, 4)])
def test_filled_ladder_matches_independent_recomputation(field, d, j, seed):
    V = random_space(d, j, field, seed)
    ancestor_ideal(V)  # fills the ladder in both directions
    for s in range(-j, V.cod + 3):
        W = shift(V, s)
        assert W.degree == j + s
        if s > 0:
            assert W == _multiples(V, s)
        elif s < 0:
            assert W.dim == oracle_down_dim(V, -s)
            for g in W.basis_forms():
                for a in range(-s + 1):
                    assert V.contains(mul_form(monomial(field, -s - a, a), g))
        else:
            assert W is V


def test_memo_state_does_not_affect_equality_or_hash():
    for field in (F101, QQ):
        V = random_space(3, 7, field, 5)
        fresh = FormSpace(V.field, V.degree, V.mat)
        ancestor_ideal(V)
        shift(V, 4)
        assert V == fresh and hash(V) == hash(fresh)
        assert len({V, fresh}) == 1
        assert shift(fresh, 2) == shift(V, 2) and shift(fresh, -2) == shift(V, -2)


def test_dataclass_fields_unchanged():
    assert [f.name for f in fields(FormSpace)] == ["field", "degree", "mat"]
    assert [f.name for f in fields(Matrix)] == ["field", "rows", "ncols"]

import random
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from binforms.errors import PreconditionError
from binforms.fields import GF, QQ
from binforms.forms import BinaryForm, form, monic, mul_form, monomial
from binforms.ideals import (
    ancestor_ideal,
    generator_degrees,
    hilbert_function,
    level_ideal,
    relation_degrees,
    same_ideal,
)
from binforms.linalg import Matrix, _integer_row
from binforms.osequence import oseq
from binforms.spaces import (
    FormSpace,
    _block_rows,
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

from oracles import oracle_block_rows, oracle_contained, oracle_down_dim, oracle_principal_space, oracle_rref

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


@pytest.mark.parametrize("field", [F101, QQ], ids=lambda F: F.name)
def test_shift_by_zero_is_the_space_itself(field):
    for j in range(0, 5):
        for V in (zero_space(field, j), full_space(field, j), random_space(1, j, field, j)):
            assert shift(V, 0) is V


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


def test_span_rejects_raw_row_of_wrong_length():
    # raw rows enter through span, which checks their length; Matrix trusts it
    for row in ([1, 2, 3], [1, 2, 3, 4, 5], []):
        with pytest.raises(PreconditionError, match="wrong length"):
            span(QQ, 3, [[1, 0, 0, 0], row])


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


_BIG = 2**64 + 13


def _entry_rows(field):
    """One spanning row per entry kind, made afresh (one is a generator), with the scalars it stands for."""
    other = F101 if field.p is None else QQ
    return [
        ([-3, _BIG, 0, -7 * _BIG], [-3, _BIG, 0, -7 * _BIG]),
        ([Fraction(-2, 3), Fraction(_BIG, 5), 0, 1], [Fraction(-2, 3), Fraction(_BIG, 5), 0, 1]),
        ([Decimal("0.25"), Decimal("-1.5e3"), Decimal(7), 0], [Fraction(1, 4), -1500, 7, 0]),
        (form(field, 3, [1, 2, -1, 0]), [1, 2, -1, 0]),
        (form(other, 3, [Fraction(1, 2), 0, 5, -_BIG]), form(other, 3, [Fraction(1, 2), 0, 5, -_BIG]).coeffs),
        ((x for x in (0, 1, -_BIG, 4)), [0, 1, -_BIG, 4]),
    ]


@pytest.mark.parametrize("field", [QQ, F101], ids=lambda F: F.name)
def test_span_takes_each_entry_kind_at_its_value(field):
    n = len(_entry_rows(field))
    for picked in [[k] for k in range(n)] + [list(range(n)), [0, 3, 5], [1, 2, 4]]:
        rows = [_entry_rows(field)[k] for k in picked]
        coerced = tuple(tuple(field.coerce(x) for x in want) for _, want in rows)
        red, rank, _ = oracle_rref(Matrix(field, coerced, 4))
        assert span(field, 3, [got for got, _ in rows]).mat.rows == red.rows[:rank], picked


@pytest.mark.parametrize("field", [QQ, F101], ids=lambda F: F.name)
@pytest.mark.parametrize(
    "bad",
    [[1, True, 0, 0], [1, 0.5, 0, 0], [1, "2", 0, 0], [1, 0, 0], [1, 0, 0, 0, 0],
     [1, 0, Decimal("1e5000"), 0], [1, 0, Decimal("9" * 4301), 0]],
    ids=["bool", "float", "str", "short", "long", "decimal-exponent", "decimal-digits"],
)
def test_span_refuses_a_bad_entry_before_any_elimination(monkeypatch, field, bad):
    import binforms.linalg as linalg

    calls = []
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m))
    with pytest.raises(PreconditionError):
        span(field, 3, [[1, 2, 3, 4], bad])
    assert calls == []


def test_span_rejects_denominator_divisible_by_p():
    with pytest.raises(PreconditionError):
        span(GF(7), 1, [[Fraction(1, 7), 1]])
    with pytest.raises(PreconditionError):
        span(GF(7), 1, [[1, 0], [Fraction(3, 14), 2]])


def test_contains_refuses_a_form_of_another_field():
    V = span(F101, 2, [[1, 0, 0]])
    with pytest.raises(PreconditionError, match="field mismatch"):
        V.contains(form(QQ, 2, [Fraction(1, 2), 0, 0]))  # 1/2 is a unit mod 101
    with pytest.raises(PreconditionError, match="field mismatch"):
        span(QQ, 2, [[1, 0, 0]]).contains(form(F101, 2, [1, 0, 0]))
    assert V.contains(form(F101, 2, [5, 0, 0])) and not V.contains(form(F101, 3, [1, 0, 0, 0]))


CONTAIN_FIELDS = [GF(2), GF(3), F101, QQ]


@st.composite
def space_pairs(draw):
    """(inner, outer) in one degree j <= 10 over F_2, F_3, F_101 or Q: inner is
    spanned by combinations of outer's rows (inside), by those plus one unit
    vector at a free column of outer (just outside: its normal form is that
    unit vector), by random rows, or is outer itself or the zero space."""
    F = draw(st.sampled_from(CONTAIN_FIELDS))
    j = draw(st.integers(0, 10))
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    outer = random_space(draw(st.integers(0, j + 1)), j, F, seed)
    kind = draw(st.sampled_from(["inside", "one-outside", "random", "same", "zero"]))
    if kind == "same":
        return FormSpace(F, j, outer.mat), outer  # equal, but not the same object
    if kind == "zero":
        return zero_space(F, j), outer
    if kind == "random":
        return random_space(rng.randint(1, j + 1), j, F, seed + 1), outer

    def combination():
        coeffs = [F.coerce(rng.randint(-3, 3)) for _ in outer.mat.rows]
        return [F.coerce(sum(c * r[i] for c, r in zip(coeffs, outer.mat.rows))) for i in range(j + 1)]

    rows = [combination() for _ in range(rng.randint(1, 3))]
    pivots = {next(c for c, x in enumerate(r) if x) for r in outer.mat.rows}
    free = [c for c in range(j + 1) if c not in pivots]
    if kind == "one-outside" and free:
        f = rng.choice(free)
        rows[-1][f] = F.coerce(rows[-1][f] + 1)
    return span(F, j, rows), outer


@given(space_pairs())
@settings(max_examples=200, deadline=None)
def test_contained_and_contains_match_plain_elimination(pair):
    inner, outer = pair
    assert contained(inner, outer) is oracle_contained(inner, outer)
    for f in inner.basis_forms():
        assert outer.contains(f) is oracle_contained(span(f.field, f.degree, [f]), outer)


def test_contained_decides_by_normal_forms_without_elimination(monkeypatch):
    from binforms import linalg

    pairs = [(random_space(d, 8, F, 1), random_space(e, 8, F, 2))
             for F in CONTAIN_FIELDS for d, e in ((2, 5), (5, 5), (3, 9))]
    pairs += [(span(outer.field, 8, outer.basis_forms()[:2]), outer) for _, outer in pairs]
    for F in CONTAIN_FIELDS:  # one unit vector past a sum of the rows, at each free column
        outer = random_space(4, 8, F, 3)
        pivots = {next(c for c, x in enumerate(r) if x) for r in outer.mat.rows}
        row = [F.coerce(x + y) for x, y in zip(*outer.mat.rows[:2])]
        for f in sorted(set(range(9)) - pivots):
            pairs.append((span(F, 8, [row[:f] + [F.coerce(row[f] + 1)] + row[f + 1:]]), outer))
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m) or real(m))
    got = [contained(inner, outer) for inner, outer in pairs]
    assert calls == []  # the oracle eliminates by its own scalar loop, not `rref`
    assert got == [oracle_contained(inner, outer) for inner, outer in pairs]
    assert got.count(True) >= 12 and got.count(False) >= 20  # the 12 row subspaces are inside


@pytest.mark.parametrize("field", CONTAIN_FIELDS, ids=lambda F: F.name)
def test_contained_refuses_another_degree_or_field(field):
    V = random_space(2, 4, field, 0)
    others = [random_space(2, 5, field, 0), random_space(1, 3, field, 0)]
    others += [random_space(2, 4, F, 0) for F in CONTAIN_FIELDS if F != field]
    for other in others:
        for inner, outer in ((V, other), (other, V)):
            with pytest.raises(PreconditionError, match="containment of spaces in different degrees or fields"):
                contained(inner, outer)



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


@st.composite
def equivalence_pairs(draw):
    """(V, W) over F_2, F_101 or Q, each a shift of one random (d, j) space U (d = 0 gives zero
    spaces), as a fresh copy with no rung built; or W a random space of its own, of V's degree
    or another.  Same-degree pairs, equal or not, and zero spaces are all drawn."""
    F = draw(st.sampled_from([GF(2), F101, QQ]))
    j, seed = draw(st.integers(0, 7)), draw(st.integers(0, 10**6))

    def space(d, k, seed):
        return zero_space(F, k) if d == 0 else random_space(d, k, F, seed)

    U = space(draw(st.integers(0, j + 1)), j, seed)
    V, W = (shift(U, draw(st.integers(-min(j, 2), 3))) for _ in range(2))
    if draw(st.booleans()):
        k = draw(st.sampled_from([V.degree, draw(st.integers(0, 8))]))
        W = space(draw(st.integers(0, k + 1)), k, seed + 1)
    return tuple(FormSpace(X.field, X.degree, X.mat) for X in (V, W))


@given(equivalence_pairs())
@settings(max_examples=300, deadline=None)
def test_equivalent_is_having_the_same_ancestor_ideal(pair):
    # one rule for every pair of degrees, same-degree and zero pairs included
    V, W = pair
    assert equivalent(V, W) == same_ideal(ancestor_ideal(V), ancestor_ideal(W))
    if V.is_zero or W.is_zero:
        assert equivalent(V, W) == (V.is_zero and W.is_zero)


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
        assert V._principal is None
        assert V == fresh and hash(V) == hash(fresh)
        assert len({V, fresh}) == 1
        assert shift(fresh, 2) == shift(V, 2) and shift(fresh, -2) == shift(V, -2)
        # a block built in closed form carries its memo from birth
        P = principal_space(form(field, 3, [0, 2, 1, 5]), 7)
        bare = FormSpace(P.field, P.degree, P.mat)
        assert "_principal" in P.__dict__ and "_principal" not in bare.__dict__
        assert P == bare and hash(P) == hash(bare) and len({P, bare}) == 1
        assert bare._principal == P._principal  # now both hold the memo
        assert P == bare and hash(P) == hash(bare)


def test_dataclass_fields_unchanged():
    assert [f.name for f in fields(FormSpace)] == ["field", "degree", "mat"]
    assert [f.name for f in fields(Matrix)] == ["field", "rows", "ncols"]


# ----- principal blocks in closed form ------------------------------------------

PRINCIPAL_FIELDS = [GF(2), GF(3), F101, GF(2**61 - 1), QQ]


def _scalar(draw, F, nonzero=False):
    if F.p is not None:
        x = draw(st.one_of(st.integers(0, min(F.p - 1, 3)), st.integers(0, F.p - 1)))
    else:
        x = Fraction(
            draw(st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))),
            draw(st.one_of(st.integers(1, 3), st.integers(1, 2**70))),
        )
    return F.one if nonzero and not x else F.coerce(x)


@st.composite
def blocks(draw):
    """(f, s): f = y^a x^b core with core(0), core(top) != 0, often not
    monic, and 0 <= s <= 6."""
    F = draw(st.sampled_from(PRINCIPAL_FIELDS))
    a, b, k = draw(st.integers(0, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 5))
    core = [_scalar(draw, F, nonzero=True)]
    core += [_scalar(draw, F) for _ in range(k - 1)]
    core += [_scalar(draw, F, nonzero=True)] if k else []
    coeffs = (F.zero,) * a + tuple(core) + (F.zero,) * b
    return BinaryForm(F, len(coeffs) - 1, coeffs), draw(st.integers(0, 6))


def assert_same_basis(got, want):
    """Equal canonical bases, scalar types, F_p residue range and `nrows` included."""
    assert got == want and got.dim == want.dim == len(got.mat.rows)
    p = got.field.p
    for grow, wrow in zip(got.mat.rows, want.mat.rows, strict=True):
        for g, w in zip(grow, wrow, strict=True):
            assert type(g) is type(w)
            assert p is None or 0 <= g < p


def _band_span(f, s, rng):
    """f.R_s through `span`: the band rows mixed with random multiples of f."""
    F, j = f.field, f.degree + s
    gens = [mul_form(f, monomial(F, s - i, i)) for i in range(s + 1)]
    gens += [
        mul_form(f, form(F, s, [rng.randrange(-5, 6) for _ in range(s + 1)]))
        for _ in range(rng.randint(0, 3))
    ]
    rng.shuffle(gens)
    return span(F, j, gens)


@given(blocks())
@settings(max_examples=200, deadline=None)
def test_principal_space_matches_band_elimination(case):
    f, s = case
    j = f.degree + s
    P = principal_space(f, j)
    assert_same_basis(P, oracle_principal_space(f, j))
    # the rungs down past the block's bottom row (to zero) and up, each a block from (f, s +- k)
    for k in range(max(-(s + 1), -j), 7):
        assert_same_basis(shift(P, k), oracle_principal_space(f, j + k))
    if f.degree:
        assert principal_space(f, f.degree - 1).is_zero


BLOCK_HEIGHT = 2**64


@st.composite
def block_forms(draw):
    """(f, s), f monic = y^a core x^b, core of degree k >= 0, s >= 0, a > 0 or s = 0 or deg f = 0 often:
    over Q at heights up to 2^64, also small ones (whose leads share factors with the tail)."""
    F = draw(st.sampled_from([QQ, GF(2), F101]))
    a, b, k = draw(st.integers(0, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 5))
    if F.p is None:
        h = draw(st.sampled_from([4, 12, BLOCK_HEIGHT]))
        x = st.builds(Fraction, st.integers(-h, h), st.integers(1, h))
        core = [Fraction(1)] + [draw(x) for _ in range(k)]
    else:
        core = [F.one] + [draw(st.integers(0, F.p - 1)) for _ in range(k)]
    if k and not core[-1]:
        core[-1] = F.one
    coeffs = (F.zero,) * a + tuple(core) + (F.zero,) * b
    return BinaryForm(F, len(coeffs) - 1, coeffs), draw(st.sampled_from([0, 1, 2, 5, 9]))


@given(block_forms())
@settings(max_examples=300, deadline=None)
def test_block_rows_are_the_integer_rows_of_the_fraction_recursion(case):
    f, s = case
    want = oracle_block_rows(f, s)
    got = list(_block_rows(f, s))
    assert got == (want if f.field.p else [tuple(_integer_row(r)) for r in want])
    assert all(type(x) is int for r in got for x in r)
    assert principal_space(f, f.degree + s).mat.rows == tuple(want[::-1])


def _rows_unwritten(m):
    """A block matrix that holds its thunk and no rows: neither `rows` nor `_ints` computed."""
    return set(vars(m)) == {"field", "ncols", "nrows", "_write"}


@pytest.mark.parametrize("field", [F101, QQ], ids=lambda F: F.name)
def test_ideals_of_a_principal_space_write_no_block_rows(field):
    rng = random.Random(400)
    f = form(field, 3, [1, 0, rng.randint(1, 9), rng.randint(1, 9)])
    g = form(field, 400, [rng.randint(1, 9) for _ in range(401)])
    for V in (principal_space(f, 400), span(field, 400, [g])):
        h = V._principal
        A, L = ancestor_ideal(V), level_ideal(V)
        assert generator_degrees(A) == (h.degree,) and relation_degrees(A) == ()
        assert hilbert_function(A) == oseq(range(1, h.degree + 1), h.degree)
        assert hilbert_function(L) == oseq([min(i + 1, h.degree) for i in range(401)], 0)
        assert generator_degrees(L) == (h.degree,) + (401,) * h.degree
        assert len(relation_degrees(L)) == h.degree  # Hilbert-Burch: one fewer than the generators
        blocks = [W for I in (A, L) for W in I.components if not W.is_zero and W.mat is not V.mat]
        assert len(blocks) > 400 and all(_rows_unwritten(W.mat) for W in blocks)
        above = [I.component(i) for I in (A, L) for i in range(I.window_hi + 1, I.window_hi + 4)]
        assert all(_rows_unwritten(W.mat) for W in above)  # each a block from (tail_gcd, i)


@given(blocks(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_memo_matches_gcd_route_on_spanned_blocks(case, rng):
    f, s = case
    V = _band_span(f, s, rng)
    assert "_principal" not in V.__dict__
    g = V._principal
    assert g == gcd_of_space(V) == monic(f)
    assert all(type(c) is type(f.field.one) for c in g.coeffs)


@given(blocks(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_memo_is_none_exactly_off_principal_blocks(case, rng):
    f, s = case
    F, j = f.field, f.degree + s
    # f times a random subspace of R_s, sometimes with one random form added
    gens = [
        mul_form(f, form(F, s, [rng.randrange(-3, 4) for _ in range(s + 1)]))
        for _ in range(rng.randint(1, s + 1))
    ]
    if rng.random() < 0.5:
        gens.append(form(F, j, [rng.randrange(-3, 4) for _ in range(j + 1)]))
    V = span(F, j, gens)
    if V.is_zero:
        assert V._principal is None
        return
    g = gcd_of_space(V)
    if V.dim == j + 1 - g.degree:
        assert V._principal == g
    else:
        assert V._principal is None


@pytest.mark.parametrize("field", [F101, GF(2**61 - 1), QQ], ids=lambda F: F.name)
def test_memo_on_generic_zero_and_full_spaces(field):
    rng = random.Random(7)
    for j in range(2, 9):
        for d in range(2, j + 1):
            # generic: pivots 0..d-1, random entries to their right, gcd 1
            V = span(field, j, [
                [int(c == i) for c in range(d)] + [rng.randint(1, 99) for _ in range(j + 1 - d)]
                for i in range(d)
            ])
            pivots = [next(i for i, c in enumerate(r) if c) for r in V.mat.rows]
            assert pivots == list(range(d)) and gcd_of_space(V).degree == 0
            assert V._principal is None
        assert zero_space(field, j)._principal is None
        one = full_space(field, j)._principal
        assert one == BinaryForm(field, 0, (field.one,)) and type(one.coeffs[0]) is type(field.one)
        assert span(field, j, [monomial(field, j - 1, 1)])._principal == monomial(field, j - 1, 1)


@given(blocks(), st.integers(1, 3), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_principal_rungs_match_multiples_and_colon_dims(case, n, rng):
    f, s = case
    j = f.degree + s
    # a block built in closed form, and the same block found by its memo
    for P in (principal_space(f, j), _band_span(f, s, rng)):
        up = shift(P, n)
        assert_same_basis(up, oracle_principal_space(f, j + n))
        assert up == _multiples(P, n)
        assert up.__dict__["_principal"] == monic(f)
        if n <= j:
            down = shift(P, -n)
            assert_same_basis(down, oracle_principal_space(f, j - n))
            assert down.dim == oracle_down_dim(P, n)


@given(blocks(), st.integers(-4, 4))
@settings(max_examples=150, deadline=None)
def test_stored_memo_matches_recomputed(case, n):
    f, s = case
    j = f.degree + s
    P = principal_space(f, j)
    for X in (P, shift(P, max(n, -j))):
        if X.is_zero:
            continue
        stored = X.__dict__["_principal"]
        recomputed = FormSpace(X.field, X.degree, X.mat)._principal
        assert stored == recomputed
        assert [type(c) for c in stored.coeffs] == [type(c) for c in recomputed.coeffs]


# ----- the one-entry pre-test of `_principal` ------------------------------------

PRETEST_FIELDS = [F101, QQ]


@st.composite
def pretest_blocks(draw):
    """(f, s) over F_101 or Q with a core of degree k >= 1 and s >= 1, so the
    block has a second-to-last row and a tail entry for the pre-test to read."""
    F = draw(st.sampled_from(PRETEST_FIELDS))
    a, b, k = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(1, 5))
    core = [_scalar(draw, F, nonzero=True)] + [_scalar(draw, F) for _ in range(k - 1)]
    core += [_scalar(draw, F, nonzero=True)]
    coeffs = (F.zero,) * a + tuple(core) + (F.zero,) * b
    return BinaryForm(F, len(coeffs) - 1, coeffs), draw(st.integers(1, 6))


def _pretest_passes(F, rows):
    """rows[-2]'s first tail entry is rho_2[0] = g_2 - g_1^2 of the last row's f."""
    last = rows[-1]
    g = last[next(i for i, c in enumerate(last) if c):] + (F.zero,)
    return rows[-2][2 - len(g)] == F.coerce(g[2] - g[1] * g[1])


def _unmemoized(F, rows):
    V = FormSpace(F, len(rows[0]) - 1, Matrix(F, tuple(rows), len(rows[0])))
    assert span(F, V.degree, rows).mat == V.mat  # the rows are a canonical RREF basis
    return V


@given(pretest_blocks())
@settings(max_examples=150, deadline=None)
def test_memo_accepts_blocks_built_by_elimination(case):
    f, s = case
    F, j = f.field, f.degree + s
    V = span(F, j, [mul_form(f, monomial(F, s - i, i)) for i in range(s + 1)])
    assert "_principal" not in V.__dict__
    assert _pretest_passes(F, V.mat.rows)
    assert V._principal == monic(f)


@given(pretest_blocks(), st.data())
@settings(max_examples=150, deadline=None)
def test_memo_rejects_a_block_changed_off_the_pretest_row(case, data):
    f, s = case
    F, j = f.field, f.degree + s
    rows = [list(r) for r in principal_space(f, j).mat.rows]
    g_deg = len(monic(f).coeffs) - monic(f).coeffs.index(F.one) - 1
    # a row other than the second-to-last; the last k columns hold no pivot,
    # so changing one of them keeps the RREF shape
    i = data.draw(st.sampled_from([i for i in range(s + 1) if i != s - 1]))
    cols = range(j + 1 - g_deg, j + 1) if i < s else range(j + 1 - g_deg + 2, j + 1)
    if not cols:  # the last row's g_1 and g_2 feed the pre-test itself
        return
    c = data.draw(st.sampled_from(list(cols)))
    rows[i][c] = F.coerce(rows[i][c] + data.draw(st.integers(1, 100)))
    rows = [tuple(r) for r in rows]
    assert _pretest_passes(F, rows)  # only the full comparison can see the change
    assert _unmemoized(F, rows)._principal is None


@given(st.sampled_from(PRETEST_FIELDS), st.integers(2, 9), st.integers(2, 5), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_memo_rejects_a_non_principal_space_that_passes_the_pretest(F, j, d, rng):
    d = min(d, j)
    # pivots 0..d-2 and the last row's pivot at d-1+e, random entries right of them
    e = rng.randint(0, j + 1 - d - 1)
    pivots = list(range(d - 1)) + [d - 1 + e]
    rows = []
    for r, p in enumerate(pivots):
        rows.append([F.zero] * (j + 1))
        rows[-1][p] = F.one
        for c in range(p + 1, j + 1):
            if c not in pivots:
                rows[-1][c] = F.coerce(rng.randint(-5, 5))
    g = rows[-1][pivots[-1]:] + [F.zero]
    if len(g) <= 2:
        return  # f = t^a: no tail entry to test
    rows[-2][2 - len(g)] = F.coerce(g[2] - g[1] * g[1])
    rows = [tuple(r) for r in rows]
    V = _unmemoized(F, rows)
    assert _pretest_passes(F, rows)
    h = gcd_of_space(V)
    assume(V.dim != j + 1 - h.degree)  # not a principal block
    assert V._principal is None


@pytest.mark.parametrize("field", [F101, QQ], ids=lambda F: F.name)
def test_zero_space_up_rung_runs_no_elimination(monkeypatch, field):
    # the cost a zero space's rungs may have: no row handed to `rref`
    from binforms import linalg

    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m) or real(m))
    up = shift(zero_space(field, 3), 4)
    assert all(m.nrows == 0 for m in calls)
    assert up == zero_space(field, 7) and up.is_zero

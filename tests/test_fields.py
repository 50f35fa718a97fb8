"""Field construction (the primality test behind every Fp:<p> field) and
scalar coercion."""

import json
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from binforms.errors import PreconditionError
from binforms.fields import GF, QQ, FieldSpec, _is_prime
from binforms.forms import add_form, form, form_from_json, linear_power
from binforms.linalg import integral_dual, kernel
from binforms.spaces import principal_space, span
from binforms.waring import GAD, dual_space, gad

COERCE_FIELDS = [GF(7), GF(101), QQ]


def _trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_primality_matches_trial_division_below_1e5():
    assert [n for n in range(-3, 10**5) if _is_prime(n)] == [
        n for n in range(-3, 10**5) if _trial_division(n)
    ]


@pytest.mark.parametrize(
    "n",
    [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 5394826801],
)
def test_carmichael_numbers_are_composite(n):
    assert not _is_prime(n)


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to bases 2 .. 23
        318665857834031151167461,  # strong pseudoprime to bases 2 .. 37
    ],
)
def test_strong_pseudoprimes_are_composite(n):
    assert not _is_prime(n)


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1, 10**18 + 3, 2**64 - 59])
def test_large_primes(p):
    assert _is_prime(p)


def test_huge_prime_field_builds_at_once():
    t0 = time.perf_counter()
    F = FieldSpec(10**18 + 3)
    assert time.perf_counter() - t0 < 1.0
    assert F.name == "Fp:1000000000000000003"
    assert F.coerce(F.coerce(Fraction(1) / 2) * 2) == 1
    with pytest.raises(PreconditionError):
        FieldSpec(10**18 + 1)  # 101 * 9901 * 999999000001


def test_modulus_beyond_exact_bound_is_refused():
    with pytest.raises(PreconditionError):
        FieldSpec(2**89 - 1)  # prime, but above 3.3e24


def test_q_constants_are_shared_fractions():
    assert QQ.zero is QQ.zero and QQ.one is QQ.one
    assert type(QQ.zero) is Fraction and type(QQ.one) is Fraction
    assert (QQ.zero, QQ.one) == (0, 1)
    F = GF(101)
    assert type(F.zero) is int and F.zero == 0
    assert type(F.one) is int and F.one == 1


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=lambda F: F.name)
def test_random_scalars_are_ints_and_random_spaces_enter_with_no_fraction_row(monkeypatch, field):
    # over Q the draw is randint(-9, 9) as an int, which `span` takes at its value: the same
    # space as the Fraction rows of those draws, and no `_integer_row` per drawn row
    import random

    import binforms.spaces as spaces
    from binforms.linalg import Matrix
    from oracles import oracle_rref

    calls = []
    real = spaces._integer_row
    monkeypatch.setattr(spaces, "_integer_row", lambda row: calls.append(row) or real(row))
    for seed in range(12):
        d, j = 1 + seed % 6, 6 + seed % 7
        V = spaces.random_space(d, j, field, seed)
        rng = random.Random(f"formspace|{seed}|{d}|{j}|{field.name}")
        while True:  # random_space's draws, as canonical scalars
            draws = [[field.random_scalar(rng) for _ in range(j + 1)] for _ in range(d)]
            assert all(type(x) is int for r in draws for x in r)
            red, rank, _ = oracle_rref(Matrix(field, tuple(tuple(map(field.coerce, r)) for r in draws), j + 1))
            if rank == d:
                break
        assert V.mat.rows == red.rows[:d], (seed, field.name)
    assert calls == []


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=lambda F: F.name)
@pytest.mark.parametrize("text", ["1e999999", "1e-999999", "1e4301", "7" * 4000 + "e400", "1" * 4301, "e5"])
def test_scalars_that_cannot_be_printed_back_are_refused(field, text):
    t0 = time.perf_counter()
    with pytest.raises(PreconditionError):
        field.parse_scalar(text)
    assert time.perf_counter() - t0 < 1.0  # the exponent is refused before it is expanded


def test_scalars_within_the_digit_limit_parse():
    assert QQ.parse_scalar("1e4000") == 10**4000
    assert QQ.parse_scalar("-2.5E-3") == Fraction(-1, 400)
    assert QQ.parse_scalar(f"{2**256 + 1}/{2**256 - 1}") == Fraction(2**256 + 1, 2**256 - 1)
    assert GF(101).parse_scalar("1e2") == 100


@pytest.mark.parametrize("name", [["Q"], 101, None, {"p": 7}])
def test_field_name_that_is_not_a_string_is_refused(name):
    with pytest.raises(PreconditionError, match="unknown field"):
        FieldSpec.from_name(name)


@pytest.mark.parametrize("field", COERCE_FIELDS, ids=lambda F: F.name)
@pytest.mark.parametrize("bad", [2.9, 2.5, 2.0, 0.1, -0.0, True, False])
def test_floats_and_bools_are_refused(field, bad):
    with pytest.raises(PreconditionError):
        field.coerce(bad)
    with pytest.raises(PreconditionError):
        form(field, 1, [bad, 1])
    with pytest.raises(PreconditionError):
        span(field, 1, [[1, 0], [bad, 1]])


@pytest.mark.parametrize("field", COERCE_FIELDS, ids=lambda F: F.name)
def test_exact_scalars_keep_their_values(field):
    def want(x):
        x = Fraction(x)
        return x if field.p is None else x.numerator * pow(x.denominator, -1, field.p) % field.p

    scalars = [0, 1, -1, 6, 7, 100, -203, 10**30 + 7,
               Fraction(1, 2), Fraction(-3, 4), Fraction(22, 3), Fraction(10**20, 3)]
    for x in scalars:
        got = field.coerce(x)
        assert got == want(x) and type(got) is type(field.one), x
        if field.p is None and type(x) is Fraction:  # already canonical: passed through
            assert got is x
    parsed = json.loads("[3, -2, 0, 12345678901234567890]")
    assert form(field, 3, parsed).coeffs == tuple(map(want, parsed))
    assert span(field, 1, [parsed[:2]]) == span(field, 1, [form(field, 1, [want(3), want(-2)])])
    # JSON files go through the text route, which reads a decimal exactly
    obj = json.loads('{"degree": 2, "coeffs": [3, "-1/2", 2.5]}')
    assert form_from_json(field, obj).coeffs == tuple(map(want, [3, Fraction(-1, 2), Fraction(5, 2)]))


@pytest.mark.parametrize("field", [GF(2), GF(7), GF(101), QQ], ids=lambda F: F.name)
def test_coerce_takes_every_exact_number_at_its_value(field):
    """A Decimal reaches the scalar of its exact Fraction (0.5 is 1/2, 4 mod 7, not int(0.5) = 0);
    text, which `parse_scalar` alone reads, and whatever Fraction refuses are PreconditionErrors."""
    for x in (Decimal("0.5"), Decimal("0.2"), Decimal("-2.75"), Decimal("1e3"), Decimal("7.000")):
        q = Fraction(x)
        if field.p is not None and q.denominator % field.p == 0:
            with pytest.raises(PreconditionError, match="denominator"):
                field.coerce(x)
            continue
        want = q if field.p is None else q.numerator * pow(q.denominator, -1, field.p) % field.p
        assert field.coerce(x) == want and type(field.coerce(x)) is type(field.one), x
        assert form(field, 0, [x]).coeffs == (want,)
    for bad in ("3", "1/2", "x", "1e5000", Decimal("NaN"), Decimal("-Infinity"), 1j, None, [1]):
        with pytest.raises(PreconditionError, match="exact scalar"):
            field.coerce(bad)


@pytest.mark.parametrize("field", [GF(101), QQ], ids=lambda F: F.name)
def test_coerce_refuses_a_decimal_beyond_the_size_rule_at_once(field):
    """More than 4300 digits or an exponent beyond 4300, which `parse_scalar` refuses in text,
    is refused before the Decimal is expanded (1e10000000 took seconds, 10^5 digits about one)."""
    for bad in (Decimal("1e10000000"), Decimal("1" * 10**5 + ".5"), Decimal("1e-4301"), Decimal("1" * 4301)):
        t0 = time.perf_counter()
        with pytest.raises(PreconditionError, match="beyond 4300 digits or exponent"):
            field.coerce(bad)
        assert time.perf_counter() - t0 < 1.0, str(bad)[:20]
    assert field.coerce(Decimal("1e4300")) == field.coerce(10**4300)
    assert field.coerce(Decimal("1" * 4300)) == field.coerce(int("1" * 4300))


CANONICAL_FIELDS = [GF(2), GF(7), GF(101), GF(2**61 - 1), QQ]


def _assert_canonical(F, scalars):
    for x in scalars:
        if F.p is None:
            assert type(x) is Fraction, x
        else:
            assert type(x) is int and 0 <= x < F.p, x


@given(st.sampled_from(CANONICAL_FIELDS), st.integers(1, 7), st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_library_results_hold_canonical_scalars(F, j, m, data):
    # raw ints of both signs and beyond p: the library must reduce what it computes
    raw = st.integers(-(2**70), 2**70) | st.integers(-9, 9)
    coeffs = lambda n: data.draw(st.lists(raw, min_size=n, max_size=n))
    k = data.draw(st.integers(0, j))
    f = form(F, k, coeffs(k + 1))
    _assert_canonical(F, [x for r in principal_space(f, j).mat.rows for x in r])
    V = span(F, j, [coeffs(j + 1) for _ in range(data.draw(st.integers(1, j + 1)))])
    _assert_canonical(F, [x for r in kernel(V.mat).rows for x in r])  # rows of V's dual vectors
    if F.p is not None:  # over Q the dual vectors are integer rows, not scalars
        _assert_canonical(F, [x for z in integral_dual(V.mat) for x in z])
    g = form(F, j, coeffs(j + 1))
    _assert_canonical(F, add_form(f if k == j else g, g).coeffs)
    s = data.draw(raw)
    _assert_canonical(F, form(F, j, [s * x for x in g.coeffs]).coeffs)
    if F.p is not None and F.p <= j:
        return  # no apolarity pairing in degree j
    # m combinations of j-th powers of independent linear dual forms, so gad can split
    lins = []
    for a, b in data.draw(st.lists(st.tuples(raw, raw), min_size=m, max_size=m)):
        if F.coerce(a) or F.coerce(b):
            if all(F.coerce(a * v - b * u) for u, v in lins):
                lins.append((a, b))
    powers = [linear_power(form(F, 1, ab), j) for ab in lins]
    rows = []
    for _ in range(data.draw(st.integers(1, 2))):
        w = form(F, j, [0] * (j + 1))
        for P in powers:
            s = data.draw(raw)
            w = add_form(w, form(F, j, [s * x for x in P.coeffs]))
        rows.append(w)
    W = dual_space(F, j, rows)
    if F.p is None:  # over Q the weighted rows are integer rows, as the dual vectors are
        assert all(type(x) is int for r in W._weighted for x in r)
    else:
        _assert_canonical(F, [x for r in W._weighted for x in r])
    result = gad(W)
    if isinstance(result, GAD):
        _assert_canonical(F, [x for L in result.linear_forms for x in L.coeffs])
        _assert_canonical(F, [x for per in result.cofactors for G in per for x in G.coeffs])

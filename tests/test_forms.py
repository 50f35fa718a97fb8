import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from binforms.errors import PreconditionError
from binforms.fields import GF, QQ
from binforms.forms import (
    BinaryForm,
    _rational_roots,
    add_form,
    divide_form,
    form,
    form_from_json,
    form_to_json,
    format_form,
    gcd_form,
    linear_factors,
    linear_power,
    monic,
    monomial,
    mul_form,
    scale_form,
    smallest_linear_factor,
    zero_form,
)
from oracles import contract, divides, oracle_contract, oracle_fp_roots, oracle_gcd, oracle_mul

F7 = GF(7)
F101 = GF(101)


def q(degree, coeffs):
    return form(QQ, degree, coeffs)


# ----- multiplication ---------------------------------------------------------


def test_mul_x_times_y():
    assert mul_form(q(1, [1, 0]), q(1, [0, 1])) == q(2, [0, 1, 0])


def test_mul_difference_of_squares():
    got = mul_form(q(1, [1, 1]), q(1, [1, -1]))
    assert got == q(2, [1, 0, -1])


def test_mul_monomials():
    assert mul_form(monomial(QQ, 3, 0), monomial(QQ, 0, 4)) == monomial(QQ, 3, 4)


# ----- gcd ------------------------------------------------------------------


def test_gcd_coprime_monomials():
    assert gcd_form(monomial(QQ, 3, 0), monomial(QQ, 0, 4)) == q(0, [1])


def test_gcd_monomials():
    assert gcd_form(monomial(QQ, 2, 1), monomial(QQ, 1, 2)) == monomial(QQ, 1, 1)


def test_gcd_hand_factored():
    # x^2 - y^2 = (x+y)(x-y); x^2 + 2xy + y^2 = (x+y)^2
    got = gcd_form(q(2, [1, 0, -1]), q(2, [1, 2, 1]))
    assert got == q(1, [1, 1])


def test_gcd_with_zero():
    f = q(2, [2, 0, -2])
    assert gcd_form(f, zero_form(QQ, 5)) == monic(f)
    with pytest.raises(PreconditionError):
        gcd_form(zero_form(QQ, 1), zero_form(QQ, 2))


# ----- division --------------------------------------------------------------


def test_divide_monomial():
    assert divide_form(monomial(QQ, 3, 1), monomial(QQ, 1, 0)) == monomial(QQ, 2, 1)


def test_divide_difference_of_squares():
    assert divide_form(q(2, [1, 0, -1]), q(1, [1, 1])) == q(1, [1, -1])


def test_divide_by_unit():
    f = q(3, [1, 2, 3, 4])
    assert divide_form(f, q(0, [1])) == f


def test_divide_inexact_raises():
    with pytest.raises(PreconditionError):
        divide_form(q(2, [1, 0, -1]), q(1, [1, 2]))


# ----- contraction ------------------------------------------------------------


def test_contract_full_power():
    # x^3 acting on X^3 gives 3! = 6
    got = contract(q(3, [1, 0, 0, 0]), q(3, [1, 0, 0, 0]))
    assert got == q(0, [6])


def test_contract_annihilates():
    j = 5
    got = contract(q(1, [1, 0]), monomial(QQ, 0, j))  # x . Y^j
    assert got.is_zero


def test_contract_mixed_monomial():
    # (x^2 y) . (X^2 Y) = 2! * 1! = 2
    got = contract(monomial(QQ, 2, 1), monomial(QQ, 2, 1))
    assert got == q(0, [2])


def test_contract_char_too_small():
    with pytest.raises(PreconditionError):
        contract(form(GF(3), 1, [1, 0]), form(GF(3), 4, [1, 0, 0, 0, 0]))


# ----- linear powers -----------------------------------------------------------


def test_linear_power_pure():
    assert linear_power(q(1, [1, 0]), 4) == monomial(QQ, 4, 0)


def test_linear_power_binomial():
    assert linear_power(q(1, [1, 1]), 2) == q(2, [1, 2, 1])


def test_linear_power_general():
    got = linear_power(q(1, [2, -1]), 3)
    assert got == q(3, [8, -12, 6, -1])


# ----- factoring ---------------------------------------------------------------


def test_linear_factors_monomial_parts():
    f = mul_form(monomial(QQ, 2, 1), q(2, [1, 0, 1]))  # x^2 y (x^2 + y^2)
    factors, rem = linear_factors(f)
    assert (q(1, [0, 1]), 1) in factors  # y
    assert (q(1, [1, 0]), 2) in factors  # x^2
    assert rem == q(2, [1, 0, 1])  # no rational roots


def test_linear_factors_split_over_f7():
    # x^2 + xy + y^2 factors over F_7 (roots t=2, t=4 of 1 + t + t^2)
    f = form(F7, 2, [1, 1, 1])
    factors, rem = linear_factors(f)
    assert rem.degree == 0
    assert sum(m for _, m in factors) == 2
    check = form(F7, 0, [1])
    for l, m in factors:
        for _ in range(m):
            check = mul_form(check, l)
    assert monic(check) == monic(f)


def test_no_rational_roots():
    f = q(2, [1, 1, 1])
    factors, rem = linear_factors(f)
    assert factors == [] and rem == f


def test_smallest_linear_factor_ordering():
    # y < x < x+y in the coefficient-tuple order
    f = mul_form(mul_form(q(1, [1, 0]), q(1, [0, 1])), q(1, [1, 1]))
    assert smallest_linear_factor(f) == q(1, [0, 1])


# F_p roots come from gcd(f, t^p - t) and equal-degree splitting; the oracle
# evaluates every residue.  Cores are coefficient lists, constant term first.

ROOT_PRIMES = (2, 3, 5, 7, 101, 10007)


def _times_root(p, core, r):
    """core * (t - r) over F_p."""
    return [(a - r * b) % p for a, b in zip([0] + core, core + [0])]


def _rootless_quadratic(p):
    """A monic irreducible quadratic: t^2 + t + 1 for p = 2, else t^2 - n
    for the least non-square n."""
    if p == 2:
        return [1, 1, 1]
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    return [-n % p, 0, 1]


@pytest.mark.parametrize("p", ROOT_PRIMES)
def test_fp_roots_match_residue_scan(p):
    F, rng = GF(p), random.Random(f"fp-roots|{p}")
    for _ in range(150 if p < 1000 else 25):
        core = [rng.randrange(p) for _ in range(rng.randint(1, 8))] + [rng.randrange(1, p)]
        for _ in range(rng.choice((0, 0, 1, 2, 4))):
            core = _times_root(p, core, rng.randrange(p))
        got = _rational_roots(F, list(core))
        assert got == oracle_fp_roots(p, core), core
        assert _rational_roots(F, list(core)) == got  # deterministic


@pytest.mark.parametrize("p", ROOT_PRIMES)
def test_fp_roots_structured_cores(p):
    F, rng = GF(p), random.Random(f"fp-structured|{p}")
    quad = _rootless_quadratic(p)
    # rootless: one irreducible quadratic, and a product of two
    assert _rational_roots(F, quad) == []
    assert _rational_roots(F, mul_form(form(F, 2, quad), form(F, 2, quad)).coeffs) == []
    f = monic(form(F, 2, quad))
    assert linear_factors(f) == ([], f)
    # fully split: t^p - t for small p, else many distinct planted roots
    if p < 100:
        split = [0, p - 1] + [0] * (p - 2) + [1]
        assert _rational_roots(F, split) == list(range(p))
    roots = sorted(rng.sample(range(p), min(p, 12)))
    core = [1]
    for r in roots:
        core = _times_root(p, core, r)
    assert _rational_roots(F, core) == roots
    # repeated roots times a rootless quadratic: linear_factors certifies the
    # multiplicities by exact division and keeps the quadratic
    mults = {r: rng.randint(1, 3) for r in rng.sample(range(p), min(p, 3))}
    core = quad
    for r, m in mults.items():
        for _ in range(m):
            core = _times_root(p, core, r)
    assert _rational_roots(F, core) == sorted(mults)
    factors, rem = linear_factors(form(F, len(core) - 1, core))
    want = sorted(((monic(form(F, 1, [-r, 1])), m) for r, m in mults.items()),
                  key=lambda fm: fm[0].coeffs)
    assert factors == want
    assert rem == f


# ----- json ---------------------------------------------------------------------


def test_json_roundtrip_q():
    f = q(2, [Fraction(1, 2), 0, -3])
    obj = form_to_json(f)
    assert obj == {"degree": 2, "coeffs": ["1/2", "0", "-3"]}
    assert form_from_json(QQ, obj) == f


def test_json_roundtrip_fp():
    f = form(F7, 1, [3, 6])
    assert form_from_json(F7, form_to_json(f)) == f


def test_format_form():
    assert format_form(q(2, [1, -2, 0])) == "x^2 - 2xy"
    assert format_form(zero_form(QQ, 3)) == "0"


# ----- properties ---------------------------------------------------------------


coeff_ints = st.integers(-9, 9)


@st.composite
def forms_over(draw, field, max_degree=6, allow_zero=True):
    d = draw(st.integers(0, max_degree))
    cs = draw(st.lists(coeff_ints, min_size=d + 1, max_size=d + 1))
    f = form(field, d, cs)
    if not allow_zero and f.is_zero:
        cs[0] = 1
        f = form(field, d, cs)
    return f


@given(forms_over(QQ), forms_over(QQ))
@settings(max_examples=60, deadline=None)
def test_mul_matches_sympy_q(f, g):
    got = mul_form(f, g)
    assert got.coeffs == oracle_mul(f.coeffs, f.degree, g.coeffs, g.degree, QQ)


@given(forms_over(F7), forms_over(F7))
@settings(max_examples=60, deadline=None)
def test_mul_matches_sympy_f7(f, g):
    got = mul_form(f, g)
    assert got.coeffs == oracle_mul(f.coeffs, f.degree, g.coeffs, g.degree, F7)


@given(forms_over(QQ, max_degree=4, allow_zero=False), forms_over(QQ, max_degree=4, allow_zero=False))
@settings(max_examples=40, deadline=None)
def test_gcd_matches_sympy(f, g):
    got = gcd_form(f, g)
    coeffs, deg = oracle_gcd(f.coeffs, f.degree, g.coeffs, g.degree, QQ)
    assert got.degree == deg and got.coeffs == coeffs
    assert divides(got, f) and divides(got, g)


@given(forms_over(QQ, max_degree=4), forms_over(QQ, max_degree=4, allow_zero=False))
@settings(max_examples=60, deadline=None)
def test_divide_inverts_mul(f, g):
    assert divide_form(mul_form(f, g), g) == f


@given(forms_over(QQ, max_degree=3), forms_over(QQ, max_degree=5))
@settings(max_examples=40, deadline=None)
def test_contract_matches_sympy(f, big):
    if f.degree > big.degree:
        f, big = big, f
    got = contract(f, big)
    assert got.coeffs == oracle_contract(f.coeffs, f.degree, big.coeffs, big.degree)


def test_contract_module_action_random():
    # (fg) . F = f . (g . F); p = 101 > every degree used here
    rng = random.Random(7)
    for _ in range(100):
        df, dg = rng.randint(0, 3), rng.randint(0, 3)
        dF = rng.randint(df + dg, df + dg + 4)
        f = form(F101, df, [rng.randrange(101) for _ in range(df + 1)])
        g = form(F101, dg, [rng.randrange(101) for _ in range(dg + 1)])
        F = form(F101, dF, [rng.randrange(101) for _ in range(dF + 1)])
        assert contract(mul_form(f, g), F) == contract(f, contract(g, F))


def test_gcd_maximal_vs_brute_force():
    # degree of gcd is maximal among all divisors: exhaustive check over F_7
    rng = random.Random(3)
    for _ in range(8):
        a = form(F7, 1, [rng.randrange(7), rng.randrange(1, 7)])
        b = form(F7, 1, [1, rng.randrange(7)])
        c = form(F7, 1, [1, rng.randrange(7)])
        f = mul_form(mul_form(a, b), c)
        g = mul_form(a, b)
        got = gcd_form(f, g)
        best = 0
        for deg in range(1, 4):
            for code in range(7 ** (deg + 1)):
                cs, n = [], code
                for _ in range(deg + 1):
                    cs.append(n % 7)
                    n //= 7
                cand = form(F7, deg, cs)
                if cand.is_zero:
                    continue
                if divides(cand, f) and divides(cand, g):
                    best = max(best, deg)
        assert got.degree == best

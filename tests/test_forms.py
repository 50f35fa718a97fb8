import math
import random
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from binforms import forms
from binforms.errors import PreconditionError
from binforms.linalg import _integer_row
from binforms.fields import GF, QQ
from binforms.spaces import gcd_of_space, random_space, span
from binforms.forms import (
    BinaryForm,
    _fp_roots,
    _rational_roots,
    _root_gcd,
    add_form,
    divide_form,
    form,
    form_from_json,
    form_to_json,
    format_form,
    linear_factors,
    linear_power,
    monic,
    monomial,
    mul_form,
    zero_form,
)
from oracles import (
    contract,
    divides,
    oracle_contract,
    oracle_fp_roots,
    oracle_gcd,
    oracle_gcd_rows,
    oracle_gcd_z,
    oracle_linear_factors,
    oracle_mul,
    oracle_q_roots,
)

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
# gcd(f, g) is gcd(V) of V = span(f, g), f and g of one degree: the same forms divide them


def gcd2(f, g):
    return gcd_of_space(span(f.field, f.degree, [f, g]))


def test_gcd_coprime_monomials():
    assert gcd2(monomial(QQ, 3, 0), monomial(QQ, 0, 3)) == q(0, [1])


def test_gcd_monomials():
    assert gcd2(monomial(QQ, 2, 1), monomial(QQ, 1, 2)) == monomial(QQ, 1, 1)


def test_gcd_hand_factored():
    # x^2 - y^2 = (x+y)(x-y); x^2 + 2xy + y^2 = (x+y)^2
    got = gcd2(q(2, [1, 0, -1]), q(2, [1, 2, 1]))
    assert got == q(1, [1, 1])


def test_gcd_with_zero():
    f = q(2, [2, 0, -2])
    assert gcd2(f, zero_form(QQ, 2)) == monic(f)
    assert gcd2(zero_form(F7, 2), form(F7, 2, [3, 0, 2])) == monic(form(F7, 2, [3, 0, 2]))
    with pytest.raises(PreconditionError, match="zero space"):
        gcd2(zero_form(QQ, 2), zero_form(QQ, 2))


@pytest.mark.parametrize("field", [F101, QQ], ids=lambda F: F.name)
def test_gcd_reads_the_powers_of_x_and_y_off_every_row(field):
    # the power of x is the least degree drop over all rows, not the first row's, and not
    # only the rows read before the chain in t turns constant (x^2's row is constant at once)
    m = lambda a, b: monomial(field, a, b)
    for f, g, want in ((m(1, 1), m(0, 2), m(0, 1)), (m(2, 0), m(0, 2), m(0, 0)),
                       (m(2, 1), m(1, 2), m(1, 1))):
        assert gcd2(f, g) == gcd2(g, f) == want, (f, g)


GCD_FIELDS = [GF(2), F7, F101, QQ]


@st.composite
def gcd_spaces(draw):
    """A random V, a planted x^a y^b f W, one form, a span of monomials or all of R_j; j <= 12."""
    F, j = draw(st.sampled_from(GCD_FIELDS)), draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["random", "planted", "one", "monomial", "full"]))
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)

    def nonzero(n):
        cs = [rng.randint(-9, 9) for _ in range(n + 1)]
        cs[rng.randrange(n + 1)] = 1
        return form(F, n, cs)

    if kind == "random":
        return random_space(rng.randint(1, j + 1), j, F, seed)
    if kind == "planted":
        a = rng.randint(0, j)
        b = rng.randint(0, j - a)
        f = nonzero(rng.randint(0, j - a - b))
        W = random_space(rng.randint(1, j - a - b - f.degree + 1), j - a - b - f.degree, F, seed)
        return span(F, j, [mul_form(monomial(F, a, b), mul_form(f, w)) for w in W.basis_forms()])
    if kind == "one":
        return span(F, j, [nonzero(j)])
    if kind == "monomial":
        ys = rng.sample(range(j + 1), rng.randint(1, j + 1))
        return span(F, j, [monomial(F, j - b, b) for b in ys])
    return random_space(j + 1, j, F, seed)


@given(gcd_spaces())
@settings(max_examples=200, deadline=None)
def test_gcd_rows_matches_the_all_rows_chain(V):
    want = oracle_gcd_rows(V.field, V.degree, V.mat.ints)
    assert forms.gcd_rows(V.field, V.degree, V.mat.ints) == want == gcd_of_space(V)


def _stripped(row):
    cs = list(row)
    while not cs[-1]:
        cs.pop()
    return cs[next(i for i, c in enumerate(cs) if c):]


@pytest.mark.parametrize("field", [F101, QQ], ids=lambda F: F.name)
def test_gcd_chain_starts_at_the_last_rows_stripped_core(monkeypatch, field):
    # the last RREF row has its pivot at >= dim - 1: stripped of its power of t it has at most
    # cod + 1 entries, and the first gcd of the chain gets it, not a whole row of degree j
    calls = []
    for name in ("_gcd_p", "_gcd_z"):
        real = getattr(forms, name)
        monkeypatch.setattr(forms, name, lambda a, b, *p, real=real: calls.append(a) or real(a, b, *p))
    f = form(field, 3, [1, 2, 0, 5])
    for d, j, seed in ((2, 9, 0), (5, 12, 1), (8, 12, 2), (3, 20, 3)):
        W = random_space(d, j - 3, field, seed)
        for V in (random_space(d, j, field, seed), span(field, j, [mul_form(f, w) for w in W.basis_forms()])):
            del calls[:]
            assert gcd_of_space(V) == oracle_gcd_rows(field, j, V.mat.ints)
            assert calls and calls[0] == _stripped(V.mat.ints[-1]), (d, j, seed)
            assert len(calls[0]) <= V.cod + 1


def test_q_gcd_of_a_planted_12_18_space_at_height_2_64_within_a_deadline():
    # twelve forms f w_i, f of degree 2, all entries a / b with |a|, b <= 2^64: the chain
    # starts from the last RREF row's short core, not from two whole 18-degree rows
    rng = random.Random(0)
    h = lambda: Fraction(rng.randint(-(2**64), 2**64), rng.randint(1, 2**64))
    f = q(2, [h() for _ in range(3)])
    V = span(QQ, 18, [mul_form(f, q(16, [h() for _ in range(17)])) for _ in range(12)])

    def overran(signum, frame):
        raise TimeoutError("gcd_of_space ran past 5 s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        got = gcd_of_space(V)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert got == monic(f)


def _z_poly(rng, degree, bits):
    """An integer list in t of this degree, entries of absolute value <= 2^bits, lc nonzero."""
    cs = [rng.randint(-(2**bits), 2**bits) for _ in range(degree + 1)]
    cs[-1] = cs[-1] or 1
    return cs


def _z_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


def test_gcd_z_falls_back_where_the_prime_cannot_decide(monkeypatch):
    # the primes tried, read off the gcds mod p: the largest below 2^61 first
    import sympy

    p = 2**61 - 1
    q = sympy.prevprime(p)
    r = sympy.prevprime(q)
    tried, real = [], forms._gcd_p
    monkeypatch.setattr(forms, "_gcd_p", lambda a, b, p: tried.append(p) or real(a, b, p))
    # (t+1)(t+2) and (t+1)(t+3) + p share t + 1 mod p only: its lift does not divide b, and q settles it
    a, b = _z_mul([1, 1], [2, 1]), _z_mul([1, 1], [3, 1])
    b[0] += p
    assert forms._gcd_z(a, b) in ([1], [-1]) and tried == [p, q]
    # p divides lc(a) = p: a mod p loses the common factor 1 + p t, so p is skipped, and 1 + p t
    # needs q r > 2p to lift
    del tried[:]
    a, b = _z_mul([1, p], [2, 1]), _z_mul([1, p], [3, 1])
    assert forms._gcd_z(a, b) in ([1, p], [-1, -p]) and tried == [q, r]
    # the lift 2 (t + 1), led by gcd(lc a, lc b) = 2, divides a and b: only its primitive part is the gcd
    del tried[:]
    assert forms._gcd_z(_z_mul([2, 2], [2, 1]), _z_mul([2, 2], [3, 1])) in ([1, 1], [-1, -1]) and tried == [p]
    # coprime with lc(a) a unit mod p: settled mod p
    del tried[:]
    assert forms._gcd_z([2, 1], [3, 1]) == [1] and tried == [p]


@given(st.integers(0, 10**6), st.sampled_from([4, 64, 200]), st.integers(0, 3), st.sampled_from(["", "shift", "lead"]))
@settings(max_examples=90, deadline=None)
def test_gcd_z_matches_sympy_on_planted_factors(seed, bits, planted, unlucky):
    # a = g u, b = g v: the primitive gcd is g's primitive part, or 1 when planted = 0 and u, v are coprime.
    # Unlucky at the first prime p: "shift" adds p to b, so g still divides b mod p but not b;
    # "lead" plants 1 + p t too, so p divides lc(a) and a mod p loses that factor
    p = 2**61 - 1
    rng = random.Random(seed)
    g = _z_mul(_z_poly(rng, planted, bits), [1, p] if unlucky == "lead" else [1])
    a, b = (_z_mul(g, _z_poly(rng, rng.randint(0, 5), bits)) for _ in range(2))
    b[0] += p if unlucky == "shift" else 0
    want = oracle_gcd_z(a, b)
    got = forms._gcd_z(a, b)
    assert got in (want, [-c for c in want]), (seed, bits, planted, unlucky)


@pytest.mark.parametrize("d,j", [(6, 21), (12, 18)])
@pytest.mark.parametrize("bits", [64, 200])
def test_q_gcd_of_a_random_space_at_height_takes_one_prime(d, j, bits):
    # every entry a / b with |a|, b <= 2^bits: gcd V = 1 is proved by one gcd mod p
    rng = random.Random(0)
    h = lambda: Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))
    V = span(QQ, j, [q(j, [h() for _ in range(j + 1)]) for _ in range(d)])
    start = time.process_time()
    got = gcd_of_space(V)
    assert time.process_time() - start <= 0.05
    assert got == q(0, [1])


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


# The binomials come from one exact running product; the oracle is math.comb,
# over F_p also for n >= p, where C(n, k) mod p is often 0.


@pytest.mark.parametrize("field", [GF(101), GF(3), QQ], ids=str)
def test_linear_power_matches_math_comb(field):
    a, b = field.coerce(2), field.coerce(-5 if field.p is None else 4)
    for n in (0, 1, 2, 3, 4, 7, 9, 30, 101, 250):
        want = [math.comb(n, k) * a ** (n - k) * b**k for k in range(n + 1)]
        got = linear_power(form(field, 1, [a, b]), n)
        assert got == form(field, n, want), n


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
    assert linear_factors(f)[0][0][0] == q(1, [0, 1])


# F_p roots come from gcd(f, t^p - t) and equal-degree splitting; the oracle
# evaluates every residue.  Cores are coefficient lists, constant term first.

ROOT_PRIMES = (2, 3, 5, 7, 101, 10007)


def _fp_roots_of(p, core):
    """Roots in F_p of a reduced, trimmed core by `_linear_split`'s path: the
    power of t is the root 0, the rest are the roots of gcd(core, t^p - t)."""
    my = next(a for a, c in enumerate(core) if c)
    rest = list(core[my:])
    return [0] * (my > 0) + (_fp_roots(_root_gcd(rest, p), p) if len(rest) > 1 else [])


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
    rng = random.Random(f"fp-roots|{p}")
    for _ in range(150 if p < 1000 else 25):
        core = [rng.randrange(p) for _ in range(rng.randint(1, 8))] + [rng.randrange(1, p)]
        for _ in range(rng.choice((0, 0, 1, 2, 4))):
            core = _times_root(p, core, rng.randrange(p))
        got = _fp_roots_of(p, core)
        assert got == oracle_fp_roots(p, core), core
        assert _fp_roots_of(p, list(core)) == got  # deterministic


@pytest.mark.parametrize("p", ROOT_PRIMES)
def test_fp_roots_structured_cores(p):
    F, rng = GF(p), random.Random(f"fp-structured|{p}")
    quad = _rootless_quadratic(p)
    # rootless: one irreducible quadratic, and a product of two
    assert _fp_roots_of(p, quad) == []
    assert _fp_roots_of(p, mul_form(form(F, 2, quad), form(F, 2, quad)).coeffs) == []
    f = monic(form(F, 2, quad))
    assert linear_factors(f) == ([], f)
    # fully split: t^p - t for small p, else many distinct planted roots
    if p < 100:
        split = [0, p - 1] + [0] * (p - 2) + [1]
        assert _fp_roots_of(p, split) == list(range(p))
    roots = sorted(rng.sample(range(p), min(p, 12)))
    core = [1]
    for r in roots:
        core = _times_root(p, core, r)
    assert _fp_roots_of(p, core) == roots
    # repeated roots times a rootless quadratic: linear_factors certifies the
    # multiplicities by exact division and keeps the quadratic
    mults = {r: rng.randint(1, 3) for r in rng.sample(range(p), min(p, 3))}
    core = quad
    for r, m in mults.items():
        for _ in range(m):
            core = _times_root(p, core, r)
    assert _fp_roots_of(p, core) == sorted(mults)
    factors, rem = linear_factors(form(F, len(core) - 1, core))
    want = sorted(((monic(form(F, 1, [-r, 1])), m) for r, m in mults.items()),
                  key=lambda fm: fm[0].coeffs)
    assert factors == want
    assert rem == f


# _powmod_p raises t + a with one packed product per exponent bit, A^2 or
# A^2 (t + a), and one fold of the lanes above the modulus's degree; the
# oracle is plain list arithmetic.  The worst case (every coefficient p - 1,
# a = p - 1, an exponent of all 1-bits) fills the lanes nearest their bound.


def _naive_powmod(a, e, mod, p):
    """(t + a)^e mod `mod` over F_p by square-and-multiply on plain lists:
    schoolbook products, then long division by `mod`."""
    n, inv = len(mod) - 1, pow(mod[-1], -1, p)

    def mulmod(u, v):
        out = [0] * (len(u) + len(v) - 1)
        for i, x in enumerate(u):
            for k, y in enumerate(v):
                out[i + k] = (out[i + k] + x * y) % p
        for top in range(len(out) - 1, n - 1, -1):
            c = out[top] * inv % p
            for k in range(n + 1):
                out[top - n + k] = (out[top - n + k] - c * mod[k]) % p
        return (out + [0] * n)[:n]

    acc = mulmod([1], [1])
    for bit in bin(e)[2:]:
        acc = mulmod(acc, acc)
        if bit == "1":
            acc = mulmod(acc, [a % p, 1])
    return acc


@pytest.mark.parametrize("p", [3, 5, 101, 10007, 2**61 - 1])
def test_powmod_matches_naive_square_and_multiply(p):
    rng = random.Random(f"powmod|{p}")
    for n in range(1, 13):
        mod = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
        for a in sorted({0, 1, p - 1, rng.randrange(p)}):
            for e in (0, 1, 2, p, (p - 1) // 2):
                assert forms._powmod_p(a, e, mod, p) == _naive_powmod(a, e, mod, p), (n, a, e)
        worst, e = [p - 1] * (n + 1), 2 ** p.bit_length() - 1
        assert forms._powmod_p(p - 1, e, worst, p) == _naive_powmod(p - 1, e, worst, p), (n, "worst")


# Q roots are roots mod p, Newton-lifted, and each root a/b is read off the
# symmetric residue of f_n r; the oracle is sympy's factorization over Q.


def _q_times(core, g):
    """core * g, both integer lists in t, constant term first."""
    out = [0] * (len(core) + len(g) - 1)
    for u, a in enumerate(core):
        for v, b in enumerate(g):
            out[u + v] += a * b
    return out


def _planted_q_core(rng, bits):
    """A Q polynomial in t with nonzero constant term: planted roots of height
    below 2^bits, some repeated, times rootless quadratics n + m t^2, over a
    common denominator; and the distinct planted roots."""
    h = lambda: rng.randint(1, 2**bits)
    core, roots = [rng.choice((1, -1)) * h()], set()
    for _ in range(rng.randint(0, 4)):
        a, b = rng.choice((1, -1)) * h(), h()
        roots.add(Fraction(a, b))
        for _ in range(rng.choice((1, 1, 2, 3))):
            core = _q_times(core, [-a, b])
    for _ in range(rng.randint(0, 2)):
        core = _q_times(core, [h(), 0, h()])
    den = h()
    return [Fraction(c, den) for c in core], sorted(roots)


@pytest.mark.parametrize("bits", [2, 8, 64, 256])
def test_q_roots_match_sympy(bits):
    rng = random.Random(f"q-roots|{bits}")
    for _ in range(10):
        core, planted = _planted_q_core(rng, bits)
        got = _rational_roots(_integer_row(core))  # the root finder's input over Q
        assert got == planted == oracle_q_roots(core), core


def test_q_roots_without_a_certificate_prime(monkeypatch):
    # every one of the first 8 odd primes divides the leading coefficient of this squarefree
    # core: one gcd mod 2^61 - 1 proves it squarefree, and its roots lift at 29
    M = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    core = _q_times([-1, M], [-2, 1])  # (M t - 1)(t - 2)
    gcds, lifts = [], []
    real_gcd, real_root = forms._gcd_z, forms._root_gcd

    def gcd_z(a, b):
        gcds.append(real_gcd(a, b))
        return gcds[-1]

    monkeypatch.setattr(forms, "_gcd_z", gcd_z)
    monkeypatch.setattr(forms, "_root_gcd", lambda f, p: lifts.append(p) or real_root(f, p))
    assert _rational_roots(core) == [Fraction(1, M), 2] == oracle_q_roots(core)
    assert gcds == [[1]] and lifts == [29]
    del gcds[:], lifts[:]
    assert _rational_roots(_q_times([-1, 1], [-2, 1])) == [1, 2]  # 3 lifts
    assert gcds == [[1]] and lifts == [3]
    del gcds[:], lifts[:]
    # (t - 1)^2 (t - 2): f / gcd(f, f') is (t - 1)(t - 2), which 3 lifts
    assert _rational_roots(_q_times(_q_times([-1, 1], [-1, 1]), [-2, 1])) == [1, 2]
    assert gcds in ([[-1, 1]], [[1, -1]]) and lifts == [3]


@pytest.mark.parametrize("factors,roots", [
    ([[-1, 1], [-1, 1], [2, 1]], [-2, 1]),  # (t - 1)^2 (t + 2)
    ([[-1, 1], [-1, 1], [-1, 1], [3, 2]], [Fraction(-3, 2), 1]),  # (t - 1)^3 (2t + 3)
    ([[5, 3], [5, 3], [-7, 1], [-7, 1], [1, 0, 1]], [Fraction(-5, 3), 7]),  # (3t + 5)^2 (t - 7)^2 (t^2 + 1)
    ([[2, 0, 1], [2, 0, 1], [-1, 4]], [Fraction(1, 4)]),  # (t^2 + 2)^2 (4t - 1)
    ([[3, 0, 1], [3, 0, 1]], []),  # (t^2 + 3)^2: no root
])
def test_q_roots_of_cores_with_a_square_factor(monkeypatch, factors, roots):
    # one gcd over Z, on the core itself, takes its squarefree part, and the roots are sympy's
    core = [1]
    for g in factors:
        core = _q_times(core, g)
    calls, real = [], forms._gcd_z
    monkeypatch.setattr(forms, "_gcd_z", lambda a, b: calls.append(a) or real(a, b))
    assert _rational_roots(core) == roots == oracle_q_roots(core)
    assert calls == [core]


def test_q_roots_of_2048_bit_planted_cores_lift_one_inverse_per_root_within_a_deadline(monkeypatch):
    # five cores, each four planted roots a/b of 2048 bits times t^2 + 1; 1/f'(r) is lifted with r
    # by s <- s (2 - f'(r) s), so the one modular inverse per root is mod p; the squarefree
    # test's gcd takes its inverses mod `_gcd_z`'s primes, and none is mod p^k
    rng = random.Random("q-roots|2048")
    cases = []
    for _ in range(5):
        core, planted = [1, 0, 1], []
        for _ in range(4):
            a, b = rng.choice((1, -1)) * (rng.getrandbits(2048) | 1), rng.getrandbits(2048) | 1 << 2047
            core, planted = _q_times(core, [-a, b]), planted + [Fraction(a, b)]
        cases.append((_integer_row(core), sorted(planted)))
    inverses = []
    monkeypatch.setattr(forms, "pow", lambda a, e, m=None: (e == -1 and inverses.append(m)) or pow(a, e, m),
                        raising=False)

    def overran(signum, frame):
        raise TimeoutError("rational roots ran past 5 s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        assert all(_rational_roots(core) == planted for core, planted in cases)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    lifting = [m for m in inverses if m not in forms._GCD_PRIMES]
    assert lifting and max(lifting) < 100  # mod a small lifting prime, never mod p^k


def test_q_roots_lift_past_twice_f0_fn():
    # u = f_n a/b has |u| <= |f_0 f_n| = 50; p = 3 lifts to 6561, since at
    # m = 81 < 100 the residue 50 would read as -31 and the root be lost
    assert _rational_roots([-50, 1]) == [50]
    assert _rational_roots([50, 1]) == [-50]
    assert _rational_roots([-50, 3]) == [Fraction(50, 3)]


def test_q_roots_structured_cores():
    assert _rational_roots([Fraction(5)]) == []
    assert _rational_roots([1, 0, 1]) == []  # 1 + t^2
    assert _rational_roots([-2, 0, 1]) == []  # irrational roots
    # (t - 1)^3 (t + 1): repeated roots, and roots that coincide mod 3
    assert _rational_roots(_integer_row([Fraction(c) for c in (-1, 2, 0, -2, 1)])) == [-1, 1]
    assert _rational_roots(_integer_row([Fraction(-3), Fraction(1, 7)])) == [21]
    # y (y - 100 x): the power of y is split off before the root finder, so
    # the lift bound 2 |f_0 f_n| is taken on t - 100 and covers 100
    assert linear_factors(q(2, [0, -100, 1])) == (
        [(q(1, [0, 1]), 1), (q(1, [1, Fraction(-1, 100)]), 1)], q(0, [1]))


@pytest.mark.parametrize("my,mx", [(0, 0), (2, 0), (0, 3), (1, 1)])
def test_linear_factors_q_match_sympy(my, mx):
    # leading zeros are the power of y (the root t = 0), trailing ones the
    # power of x; both are split off before the root finder runs
    rng = random.Random(f"q-factors|{my}|{mx}")
    for _ in range(6):
        core, _ = _planted_q_core(rng, 64)
        f = form(QQ, my + len(core) - 1 + mx, [0] * my + core + [0] * mx)
        factors, rem = linear_factors(f)
        linear, rest = oracle_linear_factors(f)
        assert {l.coeffs: m for l, m in factors} == linear
        assert rem.coeffs == rest


# Over F_p a root's multiplicity is the number of d_k = gcd(rem, g) in the remainder
# chain it is a root of: repeated roots, roots beside t = 0 and t = oo, rootless rests.


def _planted_fp_form(p, rng):
    """(y - r x)^m products with m up to 4 at distinct roots r != 0, times x^a y^b and,
    for p > 2, sometimes a rootless quadratic: a form over F_p."""
    core = [rng.randrange(1, p)]
    for r in rng.sample(range(1, p), min(p - 1, rng.randint(1, 3))):
        for _ in range(rng.randint(1, 4)):
            core = _times_root(p, core, r)
    if p > 2 and rng.random() < 0.5:
        quad = _rootless_quadratic(p)
        core = [sum(core[i] * quad[k - i] for i in range(len(core)) if 0 <= k - i < 3) % p
                for k in range(len(core) + 2)]
    my, mx = rng.randint(0, 2), rng.randint(0, 2)
    return form(GF(p), my + len(core) - 1 + mx, [0] * my + core + [0] * mx)


@pytest.mark.parametrize("p", [2, 3, 7, 101, 10007])
def test_fp_multiplicities_read_off_the_remainder_chain_match_sympy(p):
    rng = random.Random(f"fp-chain|{p}")
    for _ in range(30):
        f = _planted_fp_form(p, rng)
        factors, rem = linear_factors(f)
        assert ({l.coeffs: m for l, m in factors}, rem.coeffs) == oracle_linear_factors(f), f


@pytest.mark.parametrize("field", [GF(3), GF(7), GF(101), QQ], ids=lambda F: F.name)
def test_strip_linear_divides_out_the_first_linear_factor(field):
    # closure's constant-drop step divides by the first factor in coefficient-tuple order
    from binforms.closure import _strip_linear

    rng = random.Random(f"strip|{field.name}")
    key = lambda cs: [(Fraction(c).numerator, Fraction(c).denominator) for c in cs]
    for _ in range(25):
        if field.p:
            f = _planted_fp_form(field.p, rng)
        else:
            core, _ = _planted_q_core(rng, 16)
            my, mx = rng.randint(0, 2), rng.randint(0, 2)
            f = form(QQ, my + len(core) - 1 + mx, [0] * my + core + [0] * mx)
        linear, _ = oracle_linear_factors(f)
        if not linear:
            with pytest.raises(PreconditionError, match="no linear factor"):
                _strip_linear(f)
            continue
        assert _strip_linear(f) == divide_form(f, BinaryForm(field, 1, min(linear, key=key))), f


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
def forms_over(draw, field, max_degree=6, allow_zero=True, degree=None):
    d = draw(st.integers(0, max_degree)) if degree is None else degree
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


@st.composite
def form_pairs(draw, field, max_degree=4):
    """Two nonzero forms of one degree."""
    n = draw(st.integers(0, max_degree))
    return tuple(draw(forms_over(field, allow_zero=False, degree=n)) for _ in range(2))


@given(form_pairs(QQ))
@settings(max_examples=40, deadline=None)
def test_gcd_matches_sympy(fg):
    f, g = fg
    got = gcd2(f, g)
    coeffs, deg = oracle_gcd(f.coeffs, f.degree, g.coeffs, g.degree, QQ)
    assert got.degree == deg and got.coeffs == coeffs
    assert divides(got, f) and divides(got, g)


P61 = GF(2**61 - 1)


@pytest.mark.parametrize("field", [F7, P61], ids=["F7", "F2^61-1"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_gcd_and_divide_match_sympy_fp(field, data):
    # f and g share the factor c, so the gcds are not all 1
    a, b = data.draw(form_pairs(field))
    c = data.draw(forms_over(field, max_degree=4, allow_zero=False))
    f, g = mul_form(a, c), mul_form(b, c)
    got = gcd2(f, g)
    coeffs, deg = oracle_gcd(f.coeffs, f.degree, g.coeffs, g.degree, field)
    assert got.degree == deg and got.coeffs == coeffs
    for num, den in ((f, got), (g, got), (f, c)):
        quo = divide_form(num, den)
        assert oracle_mul(quo.coeffs, quo.degree, den.coeffs, den.degree, field) == num.coeffs
    if oracle_gcd(f.coeffs, f.degree, b.coeffs, b.degree, field)[1] < b.degree:
        with pytest.raises(PreconditionError):
            divide_form(f, b)


def test_gcd_matches_sympy_at_height_2_256():
    rng = random.Random("q-gcd|256")
    h = lambda: Fraction(rng.randint(-(2**256), 2**256), rng.randint(1, 2**256))
    for _ in range(5):
        a, b, c = (q(d, [h() for _ in range(d + 1)]) for d in (5, 5, 3))
        f, g = mul_form(a, c), mul_form(b, c)
        got = gcd2(f, g)
        coeffs, deg = oracle_gcd(f.coeffs, f.degree, g.coeffs, g.degree, QQ)
        assert got.degree == deg == 3 and got.coeffs == coeffs
        assert divide_form(f, got) == form(QQ, a.degree, [c.coeffs[0] * x for x in a.coeffs])  # got = c / c_0


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
        e = form(F7, 1, [1, rng.randrange(7)])
        f = mul_form(mul_form(a, b), c)
        g = mul_form(mul_form(a, b), e)
        got = gcd2(f, g)
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

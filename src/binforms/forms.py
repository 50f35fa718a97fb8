"""Binary forms f in k[x,y]_j and dual forms F in k[X,Y]_j.

Coefficient convention: coeffs[a] is the coefficient of x^(j-a) y^a, so a
form of degree j carries exactly j+1 scalars and the zero form of each
degree is representable.  The tuple is also f(1, t), the polynomial in
t = y/x, constant term first, on which the `_univ_*` helpers work: trailing
zeros are the power of x (the degree drop), leading zeros the power of y
(the root t = 0).  The dual ring acts by differentiation:
x^a y^b . X^c Y^d = c(c-1)...(c-a+1) d(d-1)...(d-b+1) X^(c-a) Y^(d-b),
which is a perfect pairing exactly when char k = 0 or p > degree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .fields import GF, QQ, FieldSpec, Scalar, _is_prime


@dataclass(frozen=True)
class BinaryForm:
    field: FieldSpec
    degree: int
    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        if self.degree < 0 or len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient count must be degree + 1")

    @property
    def is_zero(self) -> bool:
        return all(self.field.is_zero(c) for c in self.coeffs)


def form(field: FieldSpec, degree: int, coeffs) -> BinaryForm:
    return BinaryForm(field, degree, tuple(field.coerce(c) for c in coeffs))


def zero_form(field: FieldSpec, degree: int) -> BinaryForm:
    return BinaryForm(field, degree, (field.zero,) * (degree + 1))


def monomial(field: FieldSpec, deg_x: int, deg_y: int, coeff=1) -> BinaryForm:
    """coeff * x^deg_x y^deg_y."""
    j = deg_x + deg_y
    cs = [field.zero] * (j + 1)
    cs[deg_y] = field.coerce(coeff)
    return BinaryForm(field, j, tuple(cs))


def add_form(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    if f.degree != g.degree:
        raise PreconditionError("cannot add forms of different degrees")
    F = f.field
    return BinaryForm(F, f.degree, tuple(F.add(a, b) for a, b in zip(f.coeffs, g.coeffs)))


def scale_form(c, f: BinaryForm) -> BinaryForm:
    F = f.field
    c = F.coerce(c)
    return BinaryForm(F, f.degree, tuple(F.mul(c, a) for a in f.coeffs))


def mul_form(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Product: the product of the two polynomials in t."""
    return BinaryForm(f.field, f.degree + g.degree, tuple(_univ_mul(f.field, f.coeffs, g.coeffs)))


def monic(f: BinaryForm) -> BinaryForm:
    """Scale so the first nonzero coefficient (highest x power) is 1."""
    F = f.field
    lead = next((c for c in f.coeffs if not F.is_zero(c)), None)
    if lead is None:
        return f
    return scale_form(F.inv(lead), f)


# ----- polynomials in t = y/x, constant term first --------------------------------


def _univ_mul(F: FieldSpec, a, b) -> list:
    out = [F.zero] * (len(a) + len(b) - 1)
    for u, c in enumerate(a):
        if not F.is_zero(c):
            for v, d in enumerate(b):
                out[u + v] = F.add(out[u + v], F.mul(c, d))
    return out


def _univ_trim(F: FieldSpec, cs: list) -> list:
    while cs and F.is_zero(cs[-1]):
        cs.pop()
    return cs


def _univ_divmod(F: FieldSpec, num: list, den: list) -> tuple[list, list]:
    num = list(num)
    q = [F.zero] * max(0, len(num) - len(den) + 1)
    inv_lead = F.inv(den[-1])
    for k in range(len(num) - len(den), -1, -1):
        c = F.mul(num[k + len(den) - 1], inv_lead)
        if not F.is_zero(c):
            q[k] = c
            for i, d in enumerate(den):
                num[k + i] = F.sub(num[k + i], F.mul(c, d))
    return q, _univ_trim(F, num)


def _univ_gcd(F: FieldSpec, a: list, b: list) -> list:
    a, b = _univ_trim(F, list(a)), _univ_trim(F, list(b))
    while b:
        _, r = _univ_divmod(F, a, b)
        a, b = b, r
    inv = F.inv(a[-1])
    return [F.mul(inv, c) for c in a]


def _univ_deriv(F: FieldSpec, a: list) -> list:
    return [F.mul(F.coerce(k), c) for k, c in enumerate(a)][1:]


def _univ_eval(F: FieldSpec, core: list, t: Scalar) -> Scalar:
    acc = F.zero
    for c in reversed(core):
        acc = F.add(F.mul(acc, t), c)
    return acc


def gcd_form(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Monic gcd.  gcd(f, 0) = monic(f); gcd(0, 0) is an error."""
    if f.is_zero and g.is_zero:
        raise PreconditionError("gcd of two zero forms")
    if f.is_zero:
        return monic(g)
    if g.is_zero:
        return monic(f)
    F = f.field
    fc, gc = _univ_trim(F, list(f.coeffs)), _univ_trim(F, list(g.coeffs))
    drop = min(f.degree + 1 - len(fc), g.degree + 1 - len(gc))  # the power of x
    core = _univ_gcd(F, fc, gc)  # Euclid in t finds the common power of y
    return monic(BinaryForm(F, len(core) - 1 + drop, tuple(core) + (F.zero,) * drop))


def divide_form(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Exact quotient f / g; raises if g does not divide f."""
    if g.is_zero:
        raise PreconditionError("division by zero form")
    F = f.field
    if f.is_zero:
        if f.degree < g.degree:
            raise PreconditionError("quotient degree would be negative")
        return zero_form(F, f.degree - g.degree)
    fc, gc = _univ_trim(F, list(f.coeffs)), _univ_trim(F, list(g.coeffs))
    if g.degree + 1 - len(gc) > f.degree + 1 - len(fc):
        raise PreconditionError("monomial part does not divide")
    q, r = _univ_divmod(F, fc, gc)
    if r:
        raise PreconditionError("inexact form division")
    j = f.degree - g.degree
    return BinaryForm(F, j, tuple(q) + (F.zero,) * (j + 1 - len(q)))


# ----- apolarity action ---------------------------------------------------------


def require_pairing_char(field: FieldSpec, degree: int) -> None:
    """Refuse a field where the degree-`degree` contraction pairing degenerates.

    The pairing weights (j-a)! a! must be invertible: char 0 or p > degree.
    """
    if field.char and field.char <= degree:
        raise PreconditionError(
            "contraction pairing needs characteristic 0 or p > degree",
            char=field.char,
            degree=degree,
        )


def linear_power(L: BinaryForm, n: int) -> BinaryForm:
    """L^n for a linear form, by the binomial theorem (works in either ring)."""
    if L.degree != 1:
        raise PreconditionError("linear_power needs a degree-1 form")
    if L.is_zero:
        raise PreconditionError("linear_power of the zero form")
    field = L.field
    a, b = L.coeffs
    cs = []
    for k in range(n + 1):
        term = field.coerce(math.comb(n, k))
        for _ in range(n - k):
            term = field.mul(term, a)
        for _ in range(k):
            term = field.mul(term, b)
        cs.append(term)
    return BinaryForm(field, n, tuple(cs))


# ----- factoring into linear forms -----------------------------------------------


def _univ_powmod(F: FieldSpec, base: list, e: int, mod: list) -> list:
    """base^e mod `mod` by square-and-multiply; reduction is `_univ_divmod`."""
    acc, base = [F.one], _univ_divmod(F, list(base), mod)[1]
    for bit in bin(e)[2:]:
        acc = _univ_divmod(F, _univ_mul(F, acc, acc), mod)[1]
        if bit == "1":
            acc = _univ_divmod(F, _univ_mul(F, acc, base), mod)[1]
    return acc


def _fp_roots(F: FieldSpec, core: list) -> list:
    """Distinct roots in F_p, sorted, without scanning the residues.

    g = gcd(core, t^p - t) is the product of t - r over the roots r.  For
    odd p it is split deterministically (Cantor-Zassenhaus equal-degree
    splitting with shifts a = 0, 1, 2, ...): gcd(g, (t+a)^((p-1)/2) - 1)
    collects the roots r with r + a a nonzero square.  For two distinct
    roots (p-1)/2 of the p shifts separate them, so the loop ends below p.
    """
    p, f = F.p, _univ_trim(F, list(core))
    if p == 2:
        return [t for t in (0, 1) if F.is_zero(_univ_eval(F, f, t))]
    if len(f) < 2:
        return []
    h = _univ_powmod(F, [F.zero, F.one], p, f)
    h += [F.zero] * (2 - len(h))
    h[1] = F.sub(h[1], F.one)

    def split(g: list, start: int) -> list:
        if len(g) <= 2:
            return [F.neg(g[0])] if len(g) == 2 else []
        for a in range(start, p):
            s = _univ_powmod(F, [a, F.one], (p - 1) // 2, g) or [F.zero]
            s[0] = F.sub(s[0], F.one)
            d = _univ_gcd(F, g, s)
            if 1 < len(d) < len(g):
                # a cannot split either part again: resume at a + 1
                return split(d, a + 1) + split(_univ_divmod(F, g, d)[0], a + 1)
        raise RuntimeError("no shift below p separates the roots")

    return sorted(split(_univ_gcd(F, f, h), 0))


def _rational_roots(F: FieldSpec, core: list) -> list:
    """Distinct roots in k, sorted, of a polynomial in t; over Q its constant
    term must be nonzero (`linear_factors` strips the power of t first).

    Over Q the roots mod p are lifted p-adically (Loos, SIAM J. Comput. 12,
    1983).  f is the squarefree part cleared to integers, p the least odd
    prime with p not dividing f_n and f squarefree mod p.  A root a/b has
    a | f_0 and b | f_n, so it is a simple root mod p, Newton's iteration
    lifts it uniquely to p^k > 2 max(|f_0|, |f_n|)^2, and half-extended
    Euclid reads a/b back.  Only candidates with f(a/b) = 0 are kept.
    """
    if F.p is not None:
        return _fp_roots(F, core)
    f = _univ_divmod(QQ, core, _univ_gcd(QQ, core, _univ_deriv(QQ, core)))[0]
    den = math.lcm(*(c.denominator for c in f))
    f = [int(c * den) for c in f]
    for p in itertools.count(3, 2):
        fp = [c % p for c in f]
        if f[-1] % p and _is_prime(p) and len(_univ_gcd(GF(p), fp, _univ_deriv(GF(p), fp))) == 1:
            break
    bound, roots = 2 * max(abs(f[0]), abs(f[-1])) ** 2, []
    for r in _fp_roots(GF(p), fp):
        m = p
        while m <= bound:
            m *= m
            fr = dfr = 0
            for c in reversed(f):  # Horner for f(r) and f'(r) together
                fr, dfr = (fr * r + c) % m, (dfr * r + fr) % m
            r = (r - fr * pow(dfr, -1, m)) % m
        r0, r1, s0, s1 = m, r, 0, 1
        while 2 * r1 * r1 > m:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        if not _univ_eval(QQ, core, Fraction(r1, s1)):
            roots.append(Fraction(r1, s1))
    return sorted(roots)


def linear_factors(f: BinaryForm) -> tuple[list[tuple[BinaryForm, int]], BinaryForm]:
    """Split off all linear factors over the base field.

    Returns ([(monic linear form, multiplicity), ...], remainder) with
    f = lead * prod(l_i^m_i) * remainder; factors sorted by coefficient
    tuple, so the result is deterministic.  remainder is monic with no
    roots in k (degree 0 when f splits completely).
    """
    if f.is_zero:
        raise PreconditionError("cannot factor the zero form")
    F = f.field
    rem = _univ_trim(F, list(f.coeffs))
    mx = f.degree + 1 - len(rem)  # the degree drop is the power of x
    my = next(a for a, c in enumerate(rem) if not F.is_zero(c))  # the root t = 0
    rem = rem[my:]
    factors = [(l, m) for l, m in ((monomial(F, 0, 1), my), (monomial(F, 1, 0), mx)) if m]
    for t in _rational_roots(F, rem):
        mult = 0
        while not (qr := _univ_divmod(F, rem, [F.neg(t), F.one]))[1]:
            rem, mult = qr[0], mult + 1
        # root t of the polynomial in t <-> factor y - t x
        factors.append((monic(BinaryForm(F, 1, (F.neg(t), F.one))), mult))
    rem_form = monic(BinaryForm(F, len(rem) - 1, tuple(rem)))
    factors.sort(key=lambda fm: _coeff_sort_key(fm[0]))
    return factors, rem_form


def _coeff_sort_key(f: BinaryForm):
    return tuple(
        (c.numerator, c.denominator) if isinstance(c, Fraction) else (c, 1)
        for c in f.coeffs
    )


def smallest_linear_factor(f: BinaryForm) -> BinaryForm | None:
    """Lexicographically smallest monic linear factor over k, or None."""
    factors, _ = linear_factors(f)
    return factors[0][0] if factors else None


# ----- text & JSON --------------------------------------------------------------


def format_form(f: BinaryForm, vars=("x", "y")) -> str:
    F = f.field
    vx, vy = vars
    parts = []
    for a, c in enumerate(f.coeffs):
        if F.is_zero(c):
            continue
        dx, dy = f.degree - a, a
        mono = "".join(
            v if e == 1 else f"{v}^{e}"
            for v, e in ((vx, dx), (vy, dy))
            if e
        ) or "1"
        cs = F.format_scalar(c)
        if cs == "1" and mono != "1":
            cs = ""
        elif cs == "-1" and mono != "1":
            cs = "-"
        parts.append(f"{cs}{mono}" if mono != "1" else cs or "1")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def form_to_json(f: BinaryForm) -> dict:
    return {"degree": f.degree, "coeffs": [f.field.format_scalar(c) for c in f.coeffs]}


def form_from_json(field: FieldSpec, obj: dict) -> BinaryForm:
    try:
        degree = int(obj["degree"])
        coeffs = [field.parse_scalar(str(c)) for c in obj["coeffs"]]
    except (KeyError, TypeError) as exc:
        raise PreconditionError(f"bad form JSON: {exc}") from None
    if len(coeffs) != degree + 1:
        raise PreconditionError("form JSON: coefficient count must be degree + 1")
    return BinaryForm(field, degree, tuple(coeffs))

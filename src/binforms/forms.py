"""Binary forms f in k[x,y]_j and dual forms F in k[X,Y]_j.

Coefficient convention: coeffs[a] is the coefficient of x^(j-a) y^a, so a
form of degree j carries exactly j+1 scalars and the zero form of each
degree is representable.  The dual ring acts by differentiation:
x^a y^b . X^c Y^d = c(c-1)...(c-a+1) d(d-1)...(d-b+1) X^(c-a) Y^(d-b),
which is a perfect pairing exactly when char k = 0 or p > degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .fields import FieldSpec, Scalar


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
    cs = tuple(field.coerce(c) for c in coeffs)
    if len(cs) != degree + 1:
        raise ValueError("coefficient count must be degree + 1")
    return BinaryForm(field, degree, cs)


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
    """Product; convolution in the y-exponent."""
    F = f.field
    out = [F.zero] * (f.degree + g.degree + 1)
    for u, a in enumerate(f.coeffs):
        if F.is_zero(a):
            continue
        for v, b in enumerate(g.coeffs):
            if not F.is_zero(b):
                out[u + v] = F.add(out[u + v], F.mul(a, b))
    return BinaryForm(F, f.degree + g.degree, tuple(out))


def monic(f: BinaryForm) -> BinaryForm:
    """Scale so the first nonzero coefficient (highest x power) is 1."""
    F = f.field
    lead = next((c for c in f.coeffs if not F.is_zero(c)), None)
    if lead is None:
        return f
    return scale_form(F.inv(lead), f)


# ----- core decomposition f = x^mx * y^my * core --------------------------------


def _support(f: BinaryForm) -> tuple[int, int]:
    F = f.field
    idx = [a for a, c in enumerate(f.coeffs) if not F.is_zero(c)]
    if not idx:
        raise ValueError("zero form has no support")
    return idx[0], idx[-1]


def split_monomial_part(f: BinaryForm) -> tuple[int, int, tuple[Scalar, ...]]:
    """Return (mx, my, core) with f = x^mx y^my * core and core coprime to xy.

    core is a dense univariate coefficient tuple in t = y/x, constant term
    first, both ends nonzero.
    """
    lo, hi = _support(f)
    core = f.coeffs[lo : hi + 1]
    return f.degree - hi, lo, core


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


def gcd_form(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Monic gcd.  gcd(f, 0) = monic(f); gcd(0, 0) is an error."""
    if f.is_zero and g.is_zero:
        raise PreconditionError("gcd of two zero forms")
    if f.is_zero:
        return monic(g)
    if g.is_zero:
        return monic(f)
    F = f.field
    fx, fy, fc = split_monomial_part(f)
    gx, gy, gc = split_monomial_part(g)
    core = _univ_gcd(F, list(fc), list(gc))
    mx, my = min(fx, gx), min(fy, gy)
    j = mx + my + len(core) - 1
    out = [F.zero] * (j + 1)
    for b, c in enumerate(core):
        out[my + b] = c
    return monic(BinaryForm(F, j, tuple(out)))


def divide_form(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Exact quotient f / g; raises if g does not divide f."""
    if g.is_zero:
        raise PreconditionError("division by zero form")
    F = f.field
    if f.is_zero:
        if f.degree < g.degree:
            raise PreconditionError("quotient degree would be negative")
        return zero_form(F, f.degree - g.degree)
    fx, fy, fc = split_monomial_part(f)
    gx, gy, gc = split_monomial_part(g)
    if gx > fx or gy > fy:
        raise PreconditionError("monomial part does not divide")
    q, r = _univ_divmod(F, list(fc), list(gc))
    if r:
        raise PreconditionError("inexact form division")
    j = f.degree - g.degree
    my = fy - gy
    out = [F.zero] * (j + 1)
    for b, c in enumerate(q):
        out[my + b] = c
    return BinaryForm(F, j, tuple(out))


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

    def mulmod(a: list, b: list) -> list:
        out = [F.zero] * max(0, len(a) + len(b) - 1)
        for u, c in enumerate(a):
            if not F.is_zero(c):
                for v, d in enumerate(b):
                    out[u + v] = F.add(out[u + v], F.mul(c, d))
        return _univ_divmod(F, out, mod)[1]

    acc, base = [F.one], _univ_divmod(F, list(base), mod)[1]
    for bit in bin(e)[2:]:
        acc = mulmod(acc, acc)
        if bit == "1":
            acc = mulmod(acc, base)
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
    """Roots in the base field of the univariate core polynomial."""
    if F.p is not None:
        return _fp_roots(F, core)
    # rational root theorem on the integer-cleared polynomial
    denom_lcm = 1
    for c in core:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in core]
    a0 = next(c for c in ints if c != 0)
    an = ints[-1]
    roots = set()
    for p in _divisors(abs(a0)):
        for q in _divisors(abs(an)):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if not F.is_zero(_univ_eval(F, core, cand)):
                    continue
                roots.add(cand)
    if ints[0] == 0:
        roots.add(Fraction(0))
    return sorted(roots)


def _divisors(n: int) -> list:
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.extend((d, n // d))
    return sorted(set(out))


def _univ_eval(F: FieldSpec, core: list, t: Scalar) -> Scalar:
    acc = F.zero
    for c in reversed(core):
        acc = F.add(F.mul(acc, t), c)
    return acc


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
    mx, my, core = split_monomial_part(f)
    factors: list[tuple[BinaryForm, int]] = []
    if my:
        factors.append((monomial(F, 0, 1), my))  # y^my
    if mx:
        factors.append((monomial(F, 1, 0), mx))  # x^mx
    rem = list(core)
    for t in _rational_roots(F, list(core)):
        mult = 0
        while True:
            q, r = _univ_divmod(F, rem, [F.neg(t), F.one])
            if r:
                break
            rem, mult = q, mult + 1
        if mult:
            # root t of the dehomogenized core <-> factor y - t x
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

"""Binary forms f in k[x,y]_j and dual forms F in k[X,Y]_j.

Coefficient convention: coeffs[a] is the coefficient of x^(j-a) y^a, so a
form of degree j carries exactly j+1 scalars and the zero form of each
degree is representable.  The tuple is also f(1, t), the polynomial in
t = y/x, constant term first: trailing zeros are the power of x (the degree
drop), leading zeros the power of y (the root t = 0).  Polynomials in t are
int lists, one kernel per field kind picked once per call by `F.p`: residues
mod a local p, or primitive integer lists over Q (Fractions only for the
result), whose gcd is `_gcd_p`'s lifted by CRT.  `_linear_split` gives the rootless
part of f at once and its linear factors on demand, F_2 like any F_p.  The dual ring acts by differentiation:
x^a y^b . X^c Y^d = c(c-1)...(c-a+1) d(d-1)...(d-b+1) X^(c-a) Y^(d-b),
which is a perfect pairing exactly when char k = 0 or p > degree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable

from .errors import PreconditionError
from .fields import FieldSpec, Scalar, _is_prime, _oversized
from .linalg import _integer_row, _primitive


@dataclass(frozen=True)
class BinaryForm:
    field: FieldSpec
    degree: int
    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        if self.degree < 0 or len(self.coeffs) != self.degree + 1:
            raise PreconditionError("coefficient count must be degree + 1 >= 1",
                                    degree=self.degree, count=len(self.coeffs))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)


def form(field: FieldSpec, degree: int, coeffs) -> BinaryForm:
    return BinaryForm(field, degree, tuple(field.coerce(c) for c in coeffs))


def zero_form(field: FieldSpec, degree: int) -> BinaryForm:
    return BinaryForm(field, degree, (field.zero,) * (degree + 1))


def monomial(field: FieldSpec, deg_x: int, deg_y: int) -> BinaryForm:
    """x^deg_x y^deg_y, with coefficient `field.one`."""
    j = deg_x + deg_y
    cs = [field.zero] * (j + 1)
    cs[deg_y] = field.one
    return BinaryForm(field, j, tuple(cs))


def add_form(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    if f.degree != g.degree:
        raise PreconditionError("cannot add forms of different degrees")
    F = f.field
    return BinaryForm(F, f.degree, tuple(F.coerce(a + b) for a, b in zip(f.coeffs, g.coeffs)))


def mul_form(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Product: the product of the two polynomials in t."""
    p, b = f.field.p, g.coeffs
    out = [0] * (f.degree + g.degree + 1)
    for u, c in enumerate(f.coeffs):
        if c:
            out[u : u + len(b)] = [o + c * d for o, d in zip(out[u : u + len(b)], b)]
    cs = [Fraction(c) for c in out] if p is None else [c % p for c in out]
    return BinaryForm(f.field, len(out) - 1, tuple(cs))


def monic(f: BinaryForm) -> BinaryForm:
    """Scale so the first nonzero coefficient (highest x power) is 1: f itself if it is 1 or f = 0."""
    return f if next(filter(None, f.coeffs), 1) == 1 else _monic_form(f.field, list(f.coeffs))


# ----- polynomials in t = y/x, constant term first --------------------------------


def _trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _mod(cs, p: int) -> list[int]:
    return _trim([c % p for c in cs])


def _deriv(f: list) -> list:
    return [k * c for k, c in enumerate(f)][1:]


def _divmod_p(num, den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder mod p.  den is reduced and trimmed; num may be
    unreduced, since each step reduces only the coefficient it divides."""
    num, n = list(num), len(den) - 1
    inv = pow(den[-1], -1, p)
    q = [0] * max(0, len(num) - n)
    for k in range(len(num) - n - 1, -1, -1):
        c = num.pop() * inv % p
        if c:
            q[k] = c
            num[k:] = [x - c * d for x, d in zip(num[k:], den)]
    return q, _mod(num, p)


def _gcd_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd mod p of reduced, trimmed lists, not both zero."""
    while b:
        a, b = b, _divmod_p(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _powmod_p(a: int, e: int, mod: list[int], p: int) -> list[int]:
    """(t+a)^e mod `mod` (degree n >= 1) over F_p, 0 <= a < p: its n entries.

    Square-and-multiply on residues packed w bits per entry (Kronecker
    substitution), one product and one reduction per exponent bit: X is A^2,
    or A^2 (t+a) on a 1-bit.  X's nonzero entries n..2n-1 fold back through
    t^k mod `mod`, packed once, then the n low entries are reduced once each.
    Entries of A^2 (t+a) are at most n p (p-1)^2 and the fold adds at most
    n (p-1)^2, so all stay below n p^3 < 2^w, w = 3 bits(p) + bits(n): no carry."""
    n = len(mod) - 1
    w = 3 * p.bit_length() + n.bit_length()
    mask, shifts, low = (1 << w) - 1, range(0, n * w, w), (1 << n * w) - 1
    inv = pow(mod[-1], -1, p)
    r = t_n = [-c * inv % p for c in mod[:-1]]  # t^n mod `mod`
    folds = []
    for _ in range(n):
        folds.append(sum(c << s for c, s in zip(r, shifts)))
        r = [(x + r[-1] * d) % p for x, d in zip([0] + r[:-1], t_n)]
    A, ta = 1, (1 << w) + a
    for bit in bin(e)[2:]:
        X = A * A * ta if bit == "1" else A * A
        hi, X = X >> n * w, X & low
        for R in folds:
            if hi & mask:
                X += (hi & mask) % p * R
            hi >>= w
        A = 0
        for s in shifts:
            A |= ((X >> s) & mask) % p << s
    return [(A >> s) & mask for s in shifts]


_GCD_PRIMES = [2**61 - 1]  # `_gcd_z`'s primes, largest first, each found once as the loop needs it


def _gcd_z(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd g in Z[t] of nonzero trimmed lists (Brown, JACM 18, 1971; von zur Gathen-Gerhard,
    Modern Computer Algebra, ch. 6).  For p not dividing lc(a), g mod p keeps its degree (lc(g) | lc(a)) and
    divides gcd(a, b) mod p: a constant one proves g = 1.  Otherwise the gcds mod p of least degree, scaled
    to lead gcd(lc a, lc b), are joined by CRT until the primitive part of the symmetric lift divides a and
    b exactly: then it divides g and has g's degree, so it is g, and no coefficient bound is needed."""
    h, lift, m = math.gcd(a[-1], b[-1]), [], 1
    for k in itertools.count():
        if k == len(_GCD_PRIMES):
            _GCD_PRIMES.append(next(n for n in range(_GCD_PRIMES[-1] - 1, 1, -1) if _is_prime(n)))
        p = _GCD_PRIMES[k]
        if a[-1] % p == 0:
            continue
        gp = _gcd_p(_mod(a, p), _mod(b, p), p)
        if len(gp) == 1:
            return [1]
        if not lift or len(gp) < len(lift):
            lift, m = [0] * len(gp), 1  # p is the first prime, or every earlier one was unlucky
        elif len(gp) > len(lift):
            continue  # p is unlucky
        u = pow(m, -1, p)
        lift = [x + m * ((c * h - x) * u % p) for x, c in zip(lift, gp)]
        m *= p
        g = _primitive([x - m if 2 * x > m else x for x in lift])
        if _exquo(a, g, None) is not None and _exquo(b, g, None) is not None:
            return g


def _exquo(num: list[int], den: list[int], p: int | None) -> list[int] | None:
    """num / den when den divides num, else None: mod p, or over Z (p None)
    for a primitive den, where Gauss's lemma makes the quotient integral."""
    if p is not None:
        q, r = _divmod_p(num, den, p)
        return None if r else q
    num, n, lc = list(num), len(den) - 1, den[-1]
    q = [0] * max(0, len(num) - n)
    for k in range(len(num) - n - 1, -1, -1):
        c, r = divmod(num.pop(), lc)
        if r:
            return None
        q[k] = c
        num[k:] = [x - c * d for x, d in zip(num[k:], den)]
    return None if any(num) else q


def _monic_form(F: FieldSpec, cs: list[int]) -> BinaryForm:
    """cs (ints or canonical scalars, not all zero) over its first nonzero one."""
    lead = next(c for c in cs if c)
    if F.p is None:
        return BinaryForm(F, len(cs) - 1, tuple(Fraction(c, lead) for c in cs))
    inv = pow(lead, -1, F.p)
    return BinaryForm(F, len(cs) - 1, tuple(c * inv % F.p for c in cs))


def gcd_rows(F: FieldSpec, degree: int, rows) -> BinaryForm:
    """Monic gcd of the degree-`degree` forms with these RREF `Matrix.ints` rows: row 0's pivot is the power of y,
    the least degree drop over all rows that of x.  As gcd(t^a g, t^b h) = t^min(a, b) gcd(g, h) if g(0)h(0) != 0,
    one chain in t runs on the rows stripped of their power of t from the last row up, stopped once constant: the
    last row's pivot is >= dim - 1, so the chain starts on at most cod + 1 entries."""
    polys = [_trim(list(r)) for r in rows]
    cores = (b[next(i for i, c in enumerate(b) if c):] for b in reversed(polys))
    core = next(cores)
    for b in cores:
        if len(core) == 1:
            break
        core = _gcd_p(core, b, F.p) if F.p else _gcd_z(core, b)
    lead = next(i for i, c in enumerate(polys[0]) if c)
    return _monic_form(F, [0] * lead + core + [0] * (degree + 1 - max(map(len, polys))))


def divide_form(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Exact quotient f / g; raises if g does not divide f."""
    if g.is_zero:
        raise PreconditionError("division by zero form")
    F = f.field
    if f.is_zero:
        if f.degree < g.degree:
            raise PreconditionError("quotient degree would be negative")
        return zero_form(F, f.degree - g.degree)
    fc, gc = _trim(list(f.coeffs)), _trim(list(g.coeffs))
    if g.degree + 1 - len(gc) > f.degree + 1 - len(fc):
        raise PreconditionError("monomial part does not divide")
    if F.p is None:
        fi, gi = _integer_row(fc), _integer_row(gc)
        q = _exquo(fi, gi, None)
        if q is not None:  # fc = fi fc[-1]/fi[-1], and gc likewise
            s = fc[-1] * gi[-1] / (gc[-1] * fi[-1])
            q = [s * c for c in q]
    else:
        q = _exquo(fc, gc, F.p)
    if q is None:
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
    return BinaryForm(L.field, n, tuple(_power_list(*L.coeffs, n, L.field.p)))


def _power_list(a, b, n: int, p: int | None) -> list:
    """The coefficients of (a x + b y)^n: C(n, k) a^(n-k) b^k, reduced mod p over F_p."""
    binom = itertools.accumulate(range(n), lambda c, k: c * (n - k) // (k + 1), initial=1)  # exact C(n, k)
    if p is None:
        return [c * a ** (n - k) * b**k for k, c in enumerate(binom)]
    return [c % p * pow(a, n - k, p) * pow(b, k, p) % p for k, c in enumerate(binom)]


# ----- factoring into linear forms -----------------------------------------------


def _root_gcd(f: list[int], p: int) -> list[int]:
    """g = gcd(f, t^p - t), the product of t - r over the roots r in F_p of f
    (reduced, trimmed, of degree >= 1), from one Frobenius power t^p mod f."""
    h = _powmod_p(0, p, f, p) + [0]  # the pad is for linear f
    h[1] -= 1
    return _gcd_p(f, _mod(h, p), p)


def _fp_roots(g: list[int], p: int) -> list[int]:
    """The roots, sorted, of g = `_root_gcd(f, p)`, without scanning the residues:
    g of degree <= 1 is read off (for p = 2 and f(0) != 0 every g: it divides t + 1),
    larger g split by deterministic Cantor-Zassenhaus (von zur Gathen-Gerhard,
    Modern Computer Algebra, ch. 14) with shifts a = 0, 1, ...: the gcd of g and
    (t+a)^((p-1)/2) - 1 collects the roots r with r + a a nonzero square.  For two
    distinct roots (p-1)/2 of the p shifts separate them: the loop ends below p."""

    def split(g: list, start: int) -> list:
        if len(g) <= 2:
            return [-g[0] % p] if len(g) == 2 else []
        for a in range(start, p):
            s = _powmod_p(a, (p - 1) // 2, g, p)
            s[0] -= 1
            d = _gcd_p(g, _mod(s, p), p)
            if 1 < len(d) < len(g):
                # a cannot split either part again: resume at a + 1
                return split(d, a + 1) + split(_divmod_p(g, d, p)[0], a + 1)
        raise RuntimeError("no shift below p separates the roots")

    return sorted(split(g, 0))


def _lifting_prime(f: list[int], p: int) -> bool:
    """p does not divide f_n and gcd(f, f') = 1 mod p: then the discriminant
    of f is nonzero mod p, so f is squarefree and p can lift its roots."""
    return f[-1] % p != 0 and len(_gcd_p(_mod(f, p), _mod(_deriv(f), p), p)) == 1


def _rational_roots(f: list) -> list:
    """Distinct rational roots, sorted, of the primitive integer list f in t that
    `_linear_split` made, with a nonzero constant term (the power of t is stripped
    first); a constant f, over any field, has none.

    The roots mod p are lifted p-adically (Loos, SIAM J. Comput. 12,
    1983).  f becomes its squarefree part f / `_gcd_z`(f, f'), one gcd mod p
    when f is squarefree, and p its least odd lifting prime.  A root a/b has
    a | f_0 and b | f_n, so it is a simple root mod p and u = f_n a/b is an
    integer, |u| <= |f_0 f_n| (von zur Gathen-Gerhard, Modern Computer Algebra,
    ch. 15).  Newton's iteration lifts the root to r mod m = p^k > 2 |f_0 f_n|,
    so u is the symmetric residue of f_n r mod m; s = 1/f'(r) is lifted with r,
    s <- s (2 - f'(r) s), with no inverse past the first.  Only the u with
    f(u/f_n) = 0 are kept.
    """
    if len(f) < 2:
        return []
    f = _exquo(f, _gcd_z(f, _deriv(f)), None)
    p = next(p for p in itertools.count(3, 2) if _is_prime(p) and _lifting_prime(f, p))
    bound, roots = 2 * abs(f[0] * f[-1]), []
    for r in _fp_roots(_root_gcd(_mod(f, p), p), p):
        m = p
        while m <= bound:
            m *= m
            fr = dfr = 0
            for c in reversed(f):  # Horner for f(r) and f'(r) together
                fr, dfr = (fr * r + c) % m, (dfr * r + fr) % m
            s = pow(dfr, -1, p) if m == p * p else s * (2 - dfr * s) % m  # 1/f'(r) mod sqrt(m): f(r) is 0 mod sqrt(m)
            r = (r - fr * s) % m
        u = f[-1] * r % m
        u -= m if 2 * u > m else 0
        acc, sk = 0, 1
        for c in reversed(f):  # f_n^n f(u/f_n) by Horner, in integers
            acc, sk = acc * u + c * sk, sk * f[-1]
        if not acc:
            roots.append(Fraction(u, f[-1]))
    return sorted(roots)


def _linear_split(F: FieldSpec, coeffs) -> tuple[list, Callable[[], list[tuple[BinaryForm, int]]]]:
    """(remainder, factors) of the nonzero form with these coefficients (canonical scalars, or ints over Q):
    `linear_factors` is factors() and the remainder, a list in t, made a monic form.  Over F_p the remainder
    of the core (f less its powers of x and y) costs one Frobenius power, g = `_root_gcd(core, p)`, then
    rem <- rem / d_k for the chain d_k = gcd(rem, g) until d_k = 1.  d_k holds the roots of multiplicity
    >= k, so factors() splits g and counts the d_k each root is a root of.  Over Q the roots come first,
    and multiplicities are counted by exact division."""
    p, cs = F.p, _trim(list(coeffs))
    if not cs:
        raise PreconditionError("cannot factor the zero form")
    mx = len(coeffs) - len(cs)  # the degree drop is the power of x
    my = next(a for a, c in enumerate(cs) if c)  # the root t = 0
    core = cs[my:] if p else _integer_row(cs[my:])

    def strip(mults: dict) -> list:
        # root t of the polynomial in t <-> factor y - t x
        factors = [(l, m) for l, m in ((monomial(F, 0, 1), my), (monomial(F, 1, 0), mx)) if m]
        factors += [(_monic_form(F, [-t % p, 1] if p else [-t.numerator, t.denominator]), m) for t, m in mults.items()]
        factors.sort(key=lambda fm: [(c.numerator, c.denominator) for c in map(Fraction, fm[0].coeffs)])
        return factors

    if p is None or len(core) < 2:
        rem, mults = core, {}
        for t in _rational_roots(core):
            while (q := _exquo(rem, [-t.numerator, t.denominator], None)) is not None:
                rem, mults[t] = q, mults.get(t, 0) + 1
        factors = strip(mults)
        return rem, lambda: factors
    g, rem, chain = _root_gcd(core, p), core, []
    while len(d := _gcd_p(rem, g, p)) > 1:
        rem = _divmod_p(rem, d, p)[0]
        chain.append(d)
    return rem, lambda: strip({t: sum(not _eval_p(d, t, p) for d in chain) for t in _fp_roots(g, p)})


def _eval_p(f: list[int], t: int, p: int) -> int:
    """f(t) mod p, by Horner."""
    acc = 0
    for c in reversed(f):
        acc = (acc * t + c) % p
    return acc


def linear_factors(f: BinaryForm) -> tuple[list[tuple[BinaryForm, int]], BinaryForm]:
    """Split off all linear factors over the base field.

    Returns ([(monic linear form, multiplicity), ...], remainder) with
    f = lead * prod(l_i^m_i) * remainder; factors sorted by coefficient
    tuple, so the result is deterministic.  remainder is monic with no
    roots in k (degree 0 when f splits completely).
    """
    rem, factors = _linear_split(f.field, f.coeffs)
    return factors(), _monic_form(f.field, rem)


# ----- text & JSON --------------------------------------------------------------


def _scalar_text(c: Scalar) -> str:
    """str(c) at any length: Decimal writes integers past the int-to-str digit limit."""
    q = Fraction(c)
    return str(Decimal(q.numerator)) + ("" if q.denominator == 1 else f"/{Decimal(q.denominator)}")


def format_form(f: BinaryForm, vars=("x", "y")) -> str:
    vx, vy = vars
    parts = []
    for a, c in enumerate(f.coeffs):
        if not c:
            continue
        dx, dy = f.degree - a, a
        mono = "".join(
            v if e == 1 else f"{v}^{e}"
            for v, e in ((vx, dx), (vy, dy))
            if e
        ) or "1"
        cs = _scalar_text(c)
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
    return {"degree": f.degree, "coeffs": [_scalar_text(c) for c in f.coeffs]}


def json_int(value) -> int:
    """An int, an integral float or Decimal, or a digit string; not a bool, not 2.9.
    A Decimal is refused unless `_oversized` clears it, before it is expanded."""
    try:
        if isinstance(value, bool) or isinstance(value, Decimal) and _oversized(value):
            raise ValueError
        if isinstance(value, (float, Decimal)) and int(value) != value:
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):  # a list, "a", 1e400, 2.9
        shown = value if isinstance(value, Decimal) else repr(value)  # 2.9, as JSON wrote it
        raise PreconditionError(f"expected an integer, got {shown}") from None


def json_list(value) -> list:
    """A JSON array: a string or an object would be read entry by entry."""
    if not isinstance(value, list):
        shown = value if isinstance(value, Decimal) else type(value).__name__
        raise PreconditionError(f"expected a list, got {shown}")
    return value


def form_from_json(field: FieldSpec, obj: dict) -> BinaryForm:
    try:
        degree = json_int(obj["degree"])
        coeffs = tuple(field.parse_scalar(str(c)) for c in json_list(obj["coeffs"]))
    except (KeyError, TypeError) as exc:
        raise PreconditionError(f"bad form JSON: {exc}") from None
    return BinaryForm(field, degree, coeffs)

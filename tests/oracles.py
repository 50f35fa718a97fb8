"""Independent reference implementations used to pin expected values.

Each oracle deliberately takes a different route from the library code it
checks (double-annihilator instead of block elimination, sympy polynomial
arithmetic instead of coefficient convolution, brute-force enumeration
instead of closed formulas), so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import sympy

from binforms.errors import PreconditionError
from binforms.fields import FieldSpec
from binforms.forms import (
    BinaryForm,
    add_form,
    divide_form,
    form,
    linear_power,
    mul_form,
    require_pairing_char,
    zero_form,
)
from binforms.linalg import Matrix, kernel, rref
from binforms.osequence import OSequence, oseq

x, y = sympy.symbols("x y")


# ----- linear algebra -------------------------------------------------------


def oracle_rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Gauss-Jordan one scalar at a time, each result made canonical by
    `coerce`, normalizing each pivot row before it clears its column: the RREF
    padded with its zero rows, its rank and its pivot columns.  `linalg.rref`
    returns its first `rank` rows alone, by one integer kernel per field kind."""
    F = m.field
    rows = [list(r) for r in m.rows]
    pivots: list[int] = []
    r = 0
    for c in range(m.ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.coerce(Fraction(1) / rows[r][c])
        rows[r] = [F.coerce(inv * x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [F.coerce(x - f * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return Matrix(F, tuple(tuple(row) for row in rows), m.ncols), r, tuple(pivots)


def oracle_kernel(m: Matrix) -> Matrix:
    """Kernel in two eliminations: read one vector per free column off the
    RREF of m in its own column order, then row-reduce them.  `linalg.kernel`
    eliminates once, on the column-reversed matrix."""
    F = m.field
    red = rref(m)
    pivots = [next(c for c, x in enumerate(r) if x) for r in red.rows]
    basis = []
    for fc in (c for c in range(m.ncols) if c not in pivots):
        v = [F.zero] * m.ncols
        v[fc] = F.one
        for i, pc in enumerate(pivots):
            v[pc] = F.coerce(-red.rows[i][fc])
        basis.append(tuple(v))
    return rref(Matrix(F, tuple(basis), m.ncols))


def oracle_intersect(a: Matrix, b: Matrix) -> Matrix:
    """rowspace(A) ∩ rowspace(B) via double annihilators:
    rowspace(M) = ker(ker(M)) for the standard dot pairing."""
    return kernel(Matrix(a.field, kernel(a).rows + kernel(b).rows, a.ncols))


def zassenhaus_intersect(a: Matrix, b: Matrix) -> Matrix:
    """rowspace(A) ∩ rowspace(B) by Zassenhaus block elimination: rows [x|x]
    for a, [y|0] for b; the right halves of the rows whose left half
    vanishes span the meet.  One `rref` of a different layout from
    `oracle_intersect`, so the two routes check each other."""
    F, n = a.field, a.ncols
    block = [r + r for r in a.rows] + [r + (F.zero,) * n for r in b.rows]
    keep = [r[n:] for r in rref(Matrix(F, tuple(block), 2 * n)).rows if not any(r[:n])]
    return rref(Matrix(F, tuple(keep), n))


# ----- sympy bridge for binary forms ----------------------------------------


def coeffs_to_poly(coeffs, degree):
    """coeffs[a] is the x^(degree-a) y^a coefficient."""
    expr = sympy.Integer(0)
    for a, c in enumerate(coeffs):
        expr += sympy.Rational(c) * x ** (degree - a) * y**a
    return sympy.Poly(expr, x, y)


def poly_to_coeffs(poly, degree, field: FieldSpec):
    out = [field.zero] * (degree + 1)
    for monom, c in poly.terms():
        if c == 0:
            continue
        ex, ey = monom
        assert ex + ey == degree, "inhomogeneous oracle result"
        out[ey] = field.coerce(Fraction(int(sympy.numer(c)), int(sympy.denom(c))))
    return tuple(out)


def oracle_mul(f_coeffs, f_deg, g_coeffs, g_deg, field: FieldSpec):
    pf = coeffs_to_poly([int(c) if field.p else c for c in f_coeffs], f_deg)
    pg = coeffs_to_poly([int(c) if field.p else c for c in g_coeffs], g_deg)
    prod = (pf * pg).as_expr()
    if field.p:
        prod = sympy.Poly(prod, x, y, modulus=field.p).as_expr()
    return poly_to_coeffs(sympy.Poly(sympy.expand(prod), x, y), f_deg + g_deg, field)


def oracle_gcd(f_coeffs, f_deg, g_coeffs, g_deg, field: FieldSpec):
    """Monic gcd of two binary forms via sympy, as (coeffs, degree)."""
    pf = coeffs_to_poly([int(c) if field.p else c for c in f_coeffs], f_deg).as_expr()
    pg = coeffs_to_poly([int(c) if field.p else c for c in g_coeffs], g_deg).as_expr()
    if field.p:
        g = sympy.gcd(sympy.Poly(pf, x, y, modulus=field.p), sympy.Poly(pg, x, y, modulus=field.p))
    else:
        g = sympy.gcd(sympy.Poly(pf, x, y), sympy.Poly(pg, x, y))
    g = sympy.Poly(g, x, y)
    deg = g.total_degree()
    coeffs = poly_to_coeffs(g, deg, field)
    # normalize to leading coefficient 1 (first nonzero entry)
    lead = next(c for c in coeffs if c)
    inv = field.coerce(Fraction(1) / lead)
    return tuple(field.coerce(inv * c) for c in coeffs), deg


def oracle_gcd_rows(F: FieldSpec, degree: int, rows) -> BinaryForm:
    """Monic gcd of the degree-`degree` forms with these nonzero `Matrix.ints` rows by one gcd
    chain in t over the whole rows, first row to last, stopped once constant; the least degree
    drop over all rows is the power of x.  `forms.gcd_rows` strips each row's power of t and
    chains from the last row of an RREF up."""
    from binforms.forms import _gcd_p, _monic_form, _prs_gcd, _trim

    polys = [_trim(list(r)) for r in rows]
    core = polys[0]
    for b in polys[1:]:
        if len(core) == 1:
            break
        core = _gcd_p(core, b, F.p) if F.p else _prs_gcd(core, b)
    return _monic_form(F, core + [0] * (degree + 1 - max(map(len, polys))))


def oracle_contract(f_coeffs, f_deg, big_coeffs, big_deg):
    """Differentiation action over Q: f(x,y) acts as f(d/dX, d/dY)."""
    X, Y = sympy.symbols("X Y")
    big = sympy.Integer(0)
    for a, c in enumerate(big_coeffs):
        big += sympy.Rational(c) * X ** (big_deg - a) * Y**a
    out = sympy.Integer(0)
    for a, c in enumerate(f_coeffs):
        term = big
        for _ in range(f_deg - a):
            term = sympy.diff(term, X)
        for _ in range(a):
            term = sympy.diff(term, Y)
        out += sympy.Rational(c) * term
    out = sympy.expand(out)
    deg = big_deg - f_deg
    coeffs = [Fraction(0)] * (deg + 1)
    poly = sympy.Poly(out, X, Y) if out != 0 else None
    if poly is not None:
        for monom, c in poly.terms():
            ex, ey = monom
            coeffs[ey] = Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
    return tuple(coeffs)


def oracle_principal_space(f: BinaryForm, degree: int):
    """f.R_{degree - deg f} by eliminating its band matrix, whose row a is
    f's coefficients moved a places right (x^(s-a) y^a f); `principal_space`
    writes the canonical basis down in closed form instead."""
    from binforms.spaces import FormSpace, zero_space

    F = f.field
    if degree < f.degree or f.is_zero:
        return zero_space(F, degree)
    s, z = degree - f.degree, (F.zero,)
    rows = tuple(z * a + f.coeffs + z * (s - a) for a in range(s + 1))
    return FormSpace(F, degree, rref(Matrix(F, rows, degree + 1)))


def oracle_block_rows(f: BinaryForm, s: int) -> list[tuple]:
    """The canonical rows of f.R_s (f monic) as canonical scalars, last row first, by the remainders
    of 1/g (f = t^a g): the row with pivot a + i is e_{a+i} with rho_{s+1-i} in its last deg f - a
    columns, rho_1 = g[1:], rho_{m+1}[q] = rho_m[q+1] - rho_m[0] g[q+1], one scalar at a time.
    `spaces._block_rows` keeps each row over Q as a primitive integer row instead."""
    F = f.field
    a = f.coeffs.index(F.one)
    h = rho = f.coeffs[a + 1:]
    rows = []
    for i in range(s, -1, -1):
        rows.append((F.zero,) * (a + i) + (F.one,) + (F.zero,) * (s - i) + rho)
        c, rho = (rho[0], rho[1:] + (F.zero,)) if rho else (F.zero, rho)
        rho = tuple(F.coerce(r - c * b) for r, b in zip(rho, h))
    return rows


def divides(g: BinaryForm, f: BinaryForm) -> bool:
    try:
        divide_form(f, g)
        return True
    except PreconditionError:
        return False


# ----- the GL_2 action ---------------------------------------------------------


def _substitute(f: BinaryForm, g) -> BinaryForm:
    """f(a x + b y, c x + d y) for g = ((a, b), (c, d))."""
    F, j = f.field, f.degree
    (a, b), (c, d) = g
    acc = zero_form(F, j)
    for k, fk in enumerate(f.coeffs):
        term = mul_form(linear_power(form(F, 1, [a, b]), j - k), linear_power(form(F, 1, [c, d]), k))
        acc = add_form(acc, form(F, j, [fk * x for x in term.coeffs]))
    return acc


def random_gl2(field: FieldSpec, rng):
    """A seeded g = ((a, b), (c, d)) with entries in -3..3, drawn until it is invertible over field."""
    while True:
        g = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        if field.coerce(g[0][0] * g[1][1] - g[0][1] * g[1][0]):
            return g


def gl2_image(V, g):
    """g.V: the span of f(a x + b y, c x + d y) over V's basis forms f."""
    from binforms.spaces import span

    return span(V.field, V.degree, [_substitute(f, g) for f in V.basis_forms()])


# ----- apolarity and roots ---------------------------------------------------


def _falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


def contract(f: BinaryForm, big: BinaryForm) -> BinaryForm:
    """f . big, the differentiation action of degree-i f on degree-j big
    (i <= j), one monomial weight at a time.  The library reads the same
    pairing off catalecticant blocks instead."""
    F = f.field
    i, j = f.degree, big.degree
    if i > j:
        raise PreconditionError("contraction by higher-degree form")
    require_pairing_char(F, j)
    out = [F.zero] * (j - i + 1)
    for w in range(j - i + 1):
        acc = F.zero
        for u, fu in enumerate(f.coeffs):
            if not fu:
                continue
            Fv = big.coeffs[u + w]
            if not Fv:
                continue
            weight = _falling(j - u - w, i - u) * _falling(u + w, u)
            acc = F.coerce(acc + fu * Fv * weight)
        out[w] = acc
    return BinaryForm(F, j - i, tuple(out))


def oracle_ann_component(W, i: int):
    """(Ann W)_i from per-monomial contractions: the Y^r coefficient of
    x^(i-k) y^k . w, over every basis element w and every r, is one linear
    equation on the coefficients f_k of f in R_i."""
    from binforms.forms import form, monomial
    from binforms.spaces import full_space, span

    F, j = W.field, W.degree
    if i > j:
        return full_space(F, i)
    monos = [monomial(F, i - k, k) for k in range(i + 1)]
    eqs = []
    for w in W.basis_forms():
        images = [contract(m, w) for m in monos]
        for r in range(j - i + 1):
            eqs.append(tuple(g.coeffs[r] for g in images))
    ker = kernel(Matrix(F, tuple(eqs), i + 1))
    return span(F, i, (form(F, i, row) for row in ker.rows))


def oracle_tau_delta(W) -> int:
    """1 + dim R_1.W - dim W, spanning the contractions x.w and y.w."""
    from binforms.forms import monomial
    from binforms.spaces import span

    F, j = W.field, W.degree
    if W.dim == 0:
        return 1
    if j == 0:
        return 1 - W.dim
    x, y = monomial(F, 1, 0), monomial(F, 0, 1)
    down = span(F, j - 1, (contract(v, w) for w in W.basis_forms() for v in (x, y)))
    return 1 + down.dim - W.dim


def oracle_mu(W) -> int:
    """Initial degree of Ann W by a linear scan upward from degree 0."""
    for i in range(W.degree + 1):
        if oracle_ann_component(W, i).dim > 0:
            return i
    return W.degree + 1


def oracle_fp_roots(p: int, core) -> list:
    """Roots in F_p of sum_k core[k] t^k, by evaluating every residue."""
    out = []
    for t in range(p):
        acc = 0
        for c in reversed(core):
            acc = (acc * t + c) % p
        if acc == 0:
            out.append(t)
    return out


def oracle_q_roots(core) -> list:
    """Distinct rational roots of sum_k core[k] t^k, from sympy's factorization
    over Q (its linear factors)."""
    t = sympy.Symbol("t")
    poly = sympy.Poly(sum(sympy.Rational(c) * t**k for k, c in enumerate(core)), t, domain="QQ")
    roots = []
    for fac, _ in poly.factor_list()[1]:
        if fac.degree() == 1:
            a, b = fac.all_coeffs()  # a t + b
            roots.append(Fraction(int(sympy.numer(-b / a)), int(sympy.denom(-b / a))))
    return sorted(roots)


def oracle_linear_factors(f: BinaryForm) -> tuple[dict, tuple]:
    """`linear_factors` of a form, from sympy's factorization: in x, y over Q, and
    over F_p of f(1, t) (sympy factors no bivariate polynomial mod p), the drop in
    degree being the power of x: ({monic linear coefficient pair: multiplicity},
    monic remainder coeffs)."""
    F = f.field
    if F.p:
        return _oracle_linear_factors_fp(f)

    def monic_coeffs(poly):
        cs = poly_to_coeffs(poly, poly.total_degree(), F)
        lead = next(c for c in cs if c)
        return tuple(c / lead for c in cs)

    linear, rest = {}, sympy.Poly(1, x, y)
    for fac, m in coeffs_to_poly(f.coeffs, f.degree).factor_list()[1]:
        if fac.total_degree() == 1:
            linear[monic_coeffs(fac)] = m
        else:
            rest *= fac**m
    return linear, monic_coeffs(rest)


def _oracle_linear_factors_fp(f: BinaryForm) -> tuple[dict, tuple]:
    p, t = f.field.p, sympy.Symbol("t")
    cs = [int(c) for c in f.coeffs]
    n = max(k for k, c in enumerate(cs) if c)
    linear, rest = ({(1, 0): f.degree - n} if f.degree > n else {}), sympy.Poly(1, t, modulus=p)
    for fac, m in sympy.Poly(sum(c * t**k for k, c in enumerate(cs)), t, modulus=p).factor_list()[1]:
        if fac.degree() == 1:  # a t + b: the root r = -b/a, the factor y - r x
            a, b = (int(c) % p for c in fac.all_coeffs())
            r = -b * pow(a, -1, p) % p
            linear[(0, 1) if r == 0 else (1, pow(-r, -1, p))] = m
        else:
            rest *= fac**m
    rem = [int(c) % p for c in reversed(rest.all_coeffs())]  # constant first, nonzero
    inv = pow(rem[0], -1, p)
    return linear, tuple(c * inv % p for c in rem)


def oracle_gad_cofactors(W, linear_forms, weights):
    """GAD cofactors for W and the given linear dual forms and weights, one
    kernel per basis element of W on the columns (g_1..g_m, -w), after a
    separate rank check of the g; None if that check or a solve fails.
    `waring.gad` certifies and solves all of W in one kernel."""
    from binforms.forms import linear_power, monomial, mul_form

    F, j = W.field, W.degree
    powers = [linear_power(L, j + 1 - b) for L, b in zip(linear_forms, weights)]
    gens = [mul_form(monomial(F, b - 1 - t, t), P).coeffs
            for P, b in zip(powers, weights) for t in range(b)]
    m = len(gens)
    if m and rref(Matrix(F, tuple(gens), j + 1)).nrows != m:
        return None
    cofactors = []
    for w in W.basis_forms():
        eqs = tuple(tuple(g[r] for g in gens) + (F.coerce(-w.coeffs[r]),) for r in range(j + 1))
        z = next((z for z in kernel(Matrix(F, eqs, m + 1)).rows if z[-1]), None)
        if z is None:
            return None
        inv = F.coerce(Fraction(1) / z[-1])
        coords = [F.coerce(inv * z[k]) for k in range(m)]
        ends = list(itertools.accumulate(weights))
        cofactors.append(tuple(BinaryForm(F, b - 1, tuple(coords[e - b : e]))
                               for b, e in zip(weights, ends)))
    return tuple(cofactors)


def oracle_gad(W):
    """`waring.gad` by `linear_factors` on every row of the canonical basis of
    (Ann W)_mu, with mu and that component from the upward scan.  A row splits
    when its multiplicities add up to mu, and its rootless part is the row
    divided by the product of its linear factors (not `linear_factors`' own
    remainder).  The lex-first row that splits gives the linear dual forms
    (l = c0 x + c1 y kills c1 X - c0 Y) and weights, and `oracle_gad_cofactors`
    the cofactors; with no such row, Unsplit of the lex-first row's rootless part."""
    from binforms.forms import form, linear_factors, monic, mul_form
    from binforms.waring import GAD, Unsplit

    F, m = W.field, oracle_mu(W)
    rows = sorted(oracle_ann_component(W, m).basis_forms(), key=lambda f: f.coeffs)
    for f in rows:
        factors, _ = linear_factors(f)
        if sum(b for _, b in factors) == m:
            forms = tuple(monic(BinaryForm(F, 1, (l.coeffs[1], F.coerce(-l.coeffs[0])))) for l, _ in factors)
            weights = tuple(b for _, b in factors)
            return GAD(forms, weights, oracle_gad_cofactors(W, forms, weights))
    product = form(F, 0, [1])
    for l, b in linear_factors(rows[0])[0]:
        for _ in range(b):
            product = mul_form(product, l)
    return Unsplit(monic(divide_form(rows[0], product)))


# ----- Hilbert functions and ideals -------------------------------------------


def is_proper_osequence(H: OSequence) -> bool:
    """0 <= H_i <= i+1, starts at the diagonal, non-increasing once below it."""
    upto = len(H.prefix) + 1
    below = False
    for i in range(upto + 1):
        v = H.value(i)
        if not 0 <= v <= i + 1:
            return False
        if below and v > H.value(i - 1):
            return False
        if v <= i:
            below = True
    return True


def join_nose_tail(N: OSequence, T: OSequence, j: int) -> OSequence:
    """The sequence that follows N below j and T from j on."""
    if N.value(j) != T.value(j):
        raise PreconditionError("nose and tail disagree at degree j")
    s = T.stabilization()
    return oseq(
        [N.value(i) for i in range(j)] + [T.value(i) for i in range(j, max(s, j) + 1)],
        T.constant,
    )


def common_factor_split(I):
    """Write I = f.I' where f is the common factor of all components, by
    dividing every basis form of every window component by f."""
    from binforms.ideals import graded_ideal, unit_form
    from binforms.spaces import span, zero_space

    if I.is_zero or I.tail_gcd.degree == 0:
        raise PreconditionError("ideal has no common factor to split off")
    f = I.tail_gcd
    c = f.degree
    comps = []
    for i in range(I.window_lo, I.window_hi + 1):
        comp = I.component(i)
        if comp.is_zero:
            comps.append(zero_space(I.field, i - c))
        else:
            comps.append(
                span(I.field, i - c, [divide_form(b, f) for b in comp.basis_forms()])
            )
    J = graded_ideal(I.field, I.window_lo - c, comps, unit_form(I.field))
    return f, J


def brute_force_covers(d: int, j: int) -> list:
    """Transitive reduction of the partition route `le_partial` over
    every pair of acceptable sequences, in enumeration order."""
    from binforms.hilbert import Cmp, enumerate_acceptable, le_partial

    seqs = enumerate_acceptable(d, j)
    less = {(a, b) for a in seqs for b in seqs if le_partial(a, b, d, j) is Cmp.LESS}
    return [
        (a, b)
        for a in seqs
        for b in seqs
        if (a, b) in less and not any((a, m) in less and (m, b) in less for m in seqs)
    ]



def le_values(v1: tuple, v2: tuple, j: int):
    """The specialization order compared termwise, on value vectors of equal
    length past both stabilizations (acceptable sequences are constant from
    there on): H1 >= H2 iff H1 is smaller up to j and larger from j on."""
    from binforms.hilbert import Cmp

    lo1, lo2, hi1, hi2 = v1[: j + 1], v2[: j + 1], v1[j:], v2[j:]
    ge = all(map(operator.le, lo1, lo2)) and all(map(operator.ge, hi1, hi2))
    le = all(map(operator.ge, lo1, lo2)) and all(map(operator.le, hi1, hi2))
    if ge:
        return Cmp.EQUAL if le else Cmp.GREATER
    return Cmp.LESS if le else Cmp.INCOMPARABLE


def oracle_hasse_edges(seqs: list, j: int) -> list:
    """Covers by the all-pairs scan: every LESS pair from the value comparison,
    then each pair (a, b) kept unless some member m of above[a] has b above
    it too; O(n^2) comparisons and an O(n^3) cover scan, in enumeration order."""
    from binforms.hilbert import Cmp

    top = max(j, *(H.stabilization() for H in seqs)) + 1
    vals = [H.values(top) for H in seqs]
    above = {
        a: [b for b, vb in zip(seqs, vals) if le_values(va, vb, j) is Cmp.LESS]
        for a, va in zip(seqs, vals)
    }
    above_set = {a: set(bs) for a, bs in above.items()}
    return [
        (a, b)
        for a in seqs
        for b in above[a]
        if not any(b in above_set[m] for m in above[a])
    ]

# ----- partitions & counting -------------------------------------------------


def oracle_is_acceptable(H: OSequence, d: int, j: int) -> bool:
    """Acceptability as inequalities on the difference sequence: H_j = j+1-d,
    0 <= H_i <= i+1, E weakly increasing up to j+1 and weakly decreasing from
    j on, and 0 <= E_j <= min(j+1-d, d-1).  The library decides the same
    question by the partition round trip instead."""
    if not (1 <= d <= j + 1):
        return False
    if H.is_zero_ideal:
        return False
    if H.value(j) != j + 1 - d:
        return False
    top = max(H.stabilization(), j) + 1
    if any(not 0 <= H.value(i) <= i + 1 for i in range(top + 1)):
        return False
    E = [H.e(i) for i in range(top + 3)]
    if any(E[i] > E[i + 1] for i in range(j + 1)):
        return False
    if any(E[i] < E[i + 1] for i in range(j, top + 2)):
        return False
    return 0 <= E[j] <= min(j + 1 - d, d - 1)


def oracle_permissible_nose(N: OSequence, d: int, j: int) -> bool:
    """A nose as inequalities on the difference sequence: N_j = j+1-d, zero
    past j, 0 <= N_i <= i+1, E weakly increasing up to j and E_j <= j+1-d.
    The library reads the same question off the partition round trip."""
    if N.constant != 0 or N.value(j) != j + 1 - d:
        return False
    if any(N.value(i) != 0 for i in range(j + 1, N.stabilization() + 1)):
        return False
    if any(not 0 <= N.value(i) <= i + 1 for i in range(j + 1)):
        return False
    E = [N.e(i) for i in range(j + 1)]
    if any(E[i] > E[i + 1] for i in range(j)):
        return False
    return E[j] <= j + 1 - d


def oracle_permissible_tail(T: OSequence, d: int, j: int) -> bool:
    """A tail as inequalities on the difference sequence: T_i = i+1 below j,
    T_j = j+1-d, and E weakly decreasing from j on."""
    if T.constant is None or T.value(j) != j + 1 - d:
        return False
    if any(T.value(i) != i + 1 for i in range(j)):
        return False
    top = max(T.stabilization(), j) + 1
    E = [T.e(i) for i in range(top + 2)]
    return all(E[i] >= E[i + 1] for i in range(j, top + 1))


def oracle_ell(p: tuple[int, ...]) -> int:
    """ℓ(p) pair by pair: Σ over u ≤ v of (p_u - p_v - 1)^+."""
    return sum(
        max(0, p[u] - p[v] - 1) for u in range(len(p)) for v in range(u, len(p))
    )


def oracle_dual_partition(p: tuple[int, ...]) -> tuple[int, ...]:
    """The counting definition: the k-th part is the number of parts >= k."""
    return tuple(sum(1 for u in p if u >= k) for k in range(1, max(p, default=0) + 1))


def oracle_majorizes(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    """p ≥ q index by index: |p| ≥ |q| and, with both padded by zeros, every partial sum of p
    at least q's."""
    if sum(p) < sum(q):
        return False
    acc_p = acc_q = 0
    for k in range(max(len(p), len(q))):
        acc_p += p[k] if k < len(p) else 0
        acc_q += q[k] if k < len(q) else 0
        if acc_p < acc_q:
            return False
    return True


def oracle_betti(P: tuple, Q: tuple, d: int, j: int) -> tuple:
    """A = P*, B = Q*, and C, D: A + 1̄, B + 1̄ padded with ones and sorted."""
    tau = P[0]
    A, B = oracle_dual_partition(P), oracle_dual_partition(Q)
    C = tuple(sorted([a + 1 for a in A] + [1] * (j + 2 - d - tau), reverse=True))
    D = tuple(sorted([b + 1 for b in B] + [1] * (d - tau), reverse=True))
    return A, B, C, D


def oracle_dims(H: OSequence, d: int, j: int):
    """`dims` index by index: E from `H.e(i)`, µ from `H.order()`, τ from
    `tau_of_h`, P and Q read term by term, A-D from `oracle_betti` and ℓ
    from `oracle_ell`.  For acceptable H only."""
    from binforms.hilbert import StratumReport, tau_of_h

    mu, s, c = H.order(), H.stabilization(), H.constant
    tau = tau_of_h(H, j)
    P = tuple(H.e(i) + 1 for i in range(j, mu - 1, -1))
    Q = tuple(H.e(i) for i in range(j + 1, s + 1))
    A, B, C, D = oracle_betti(P, Q, d, j)
    E = [H.e(i) for i in range(max(s, j) + 3)]

    ambient = d * (j + 1 - d)
    dim_grass = c + sum((E[i] + 1) * E[i + 1] for i in range(mu, s + 2))
    dim_la = sum((E[i] + 1) * E[i + 1] for i in range(mu, j)) + tau * (j + 1 - d)
    dim_ga = c + sum((E[i] + 1) * E[i + 1] for i in range(j + 1, s + 2)) + d * E[j + 1]
    dim_grass_tau = tau * (j + 2 - tau) - d
    ecodtau = (d - tau) * (j + 2 - d - tau)
    ecod_n = sum((E[i + 1] - E[i]) * (i - H.value(i - 1)) for i in range(mu, j)) + ecodtau
    ecod_t = (
        (2 * d - 2 - j) * c
        + sum((E[i] - E[i + 1]) * H.value(i + 1) for i in range(j + 1, s + 2))
        + ecodtau
    )
    lA, lB, lC, lD = (oracle_ell(p) for p in (A, B, C, D))
    ledger = {
        "codb": (lA, dim_grass_tau - dim_la),
        "codc": (lB + (d - 1) * c, dim_grass_tau - dim_ga),
        "coda": (lA + lB + (d - 1) * c, dim_grass_tau - dim_grass),
        "code": (lC, ambient - dim_la),
        "codf": (lD + (d - 1) * c, ambient - dim_ga),
        "codd": (lC + lD + (d - 1) * c - ecodtau, ambient - dim_grass),
        "code2": (lC + lB + (d - 1) * c, ambient - dim_grass),
        "ecodN": (ecod_n, ambient - dim_la),
        "ecodT": (ecod_t, ambient - dim_ga),
        "ecodH": (ecod_n + ecod_t - ecodtau, ambient - dim_grass),
        "ecodtau": (ecodtau, ambient - dim_grass_tau),
    }
    return StratumReport(
        H=H, d=d, j=j, tau=tau, c=c, mu=mu, P=P, Q=Q, A=A, B=B, C=C, D=D,
        ambient=ambient, dim_grass=dim_grass, dim_la=dim_la, dim_ga=dim_ga,
        dim_grass_tau=dim_grass_tau, cod_grass=ambient - dim_grass,
        cod_tau_grass=dim_grass_tau - dim_grass,
        formulas={name: formula for name, (formula, _) in ledger.items()},
        discrepancies=tuple(
            f"{name}: formula gives {formula}, truth {truth}"
            for name, (formula, truth) in ledger.items()
            if formula != truth
        ),
    )


def oracle_enumerate_acceptable(d: int, j: int) -> list:
    """`enumerate_acceptable` with every sequence built by the public
    `hilbert_from_partitions` and re-checked by `oracle_is_acceptable`."""
    import operator

    from binforms.hilbert import (
        _tau_c_range,
        hilbert_from_partitions,
        partitions_exact_largest,
    )

    if not 1 <= d <= j:
        raise PreconditionError("need 1 <= d <= j", d=d, j=j)
    keyed = []
    for tau, c in _tau_c_range(d, j):
        for P in partitions_exact_largest(d, tau):
            if len(P) > j + 1:
                continue
            for Q in partitions_exact_largest(j + 1 - d - c, tau - 1):
                H = hilbert_from_partitions(P, Q, j, c)
                if not oracle_is_acceptable(H, d, j):
                    raise AssertionError(f"built {H} from {P}, {Q}, c={c}: not acceptable")
                key = (-tau, c, tuple(-x for x in P), tuple(-x for x in Q))
                keyed.append((key, H))
    keyed.sort(key=operator.itemgetter(0))
    return [H for _, H in keyed]


def oracle_h_tau(d: int, j: int, tau: int) -> OSequence:
    """Generic stratum with the given τ in closed form: the full diagonal
    capped by the line of slope τ-1 through (j, j+1-d), then down that line
    to 0 (constant j+1-d when τ = 1)."""
    if not 1 <= tau <= min(d, j + 2 - d):
        raise PreconditionError("τ out of range", tau=tau, d=d, j=j)
    a = j + 1 - d
    values = [min(i + 1, a + (tau - 1) * (j - i)) for i in range(j + 1)]
    i = j + 1
    while True:
        v = max(0, a - (tau - 1) * (i - j))
        values.append(v)
        if v == 0 or tau == 1:
            break
        i += 1
    return oseq(values, a if tau == 1 else 0)


def partitions_of(n: int):
    """All partitions of n (descending tuples), simple recursive generator."""

    def gen(n, maxpart):
        if n == 0:
            yield ()
            return
        for first in range(min(n, maxpart), 0, -1):
            for rest in gen(n - first, first):
                yield (first,) + rest

    yield from gen(n, n if n else 0)


def count_partitions_largest(n: int, k: int) -> int:
    """#{partitions of n with largest part exactly k}, by enumeration."""
    if n == 0:
        return 1 if k == 0 else 0
    return sum(1 for p in partitions_of(n) if p and p[0] == k)


def census(d: int, j: int, q: int) -> dict:
    """|Z_H(F_q)| for every H reached, by counting every V in Grass(d, R_j)(F_q):
    one V per RREF d x (j+1) matrix (pivot columns, then every free entry),
    classified by H(R/Anc V).  Returns {H: (points, monomial points, {r: points})};
    a monomial point is a V with no nonzero free entry, a span of monomials, and
    r is the number of `related_classes` of V."""
    from binforms.fields import GF
    from binforms.ideals import ancestor_ideal, hilbert_function
    from binforms.related import related_classes
    from binforms.spaces import span

    F, out = GF(q), {}
    for pivots in itertools.combinations(range(j + 1), d):
        free = [(r, c) for r, a in enumerate(pivots) for c in range(a + 1, j + 1) if c not in pivots]
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [[int(c == a) for c in range(j + 1)] for a in pivots]
            for (r, c), v in zip(free, values):
                rows[r][c] = v
            V = span(F, j, rows)
            entry = out.setdefault(hilbert_function(ancestor_ideal(V)), [0, 0, Counter()])
            entry[0] += 1
            entry[1] += not any(values)
            entry[2][len(related_classes(V))] += 1
    return {H: (points, monomial, dict(sorted(by_r.items()))) for H, (points, monomial, by_r) in out.items()}


def oracle_down_dim(space, k: int) -> int:
    """dim{g : monomial·g ∈ V for every degree-k monomial} via V's annihilator.

    In the monomial basis, pairing x^(k-a)y^a·g against an annihilator vector w
    of V reads off a shifted slice of w, so each (a, w) pair contributes one
    linear constraint row on g."""
    F = space.field
    n = space.degree - k
    if n < 0:
        return 0
    if k == 0:
        return space.dim
    ann = oracle_kernel(space.mat)
    rows = tuple(
        tuple(w[a + t] for t in range(n + 1))
        for a in range(k + 1)
        for w in ann.rows
    )
    if not rows:
        return n + 1
    return oracle_kernel(Matrix(F, rows, n + 1)).nrows


def oracle_dual_degrees(field: FieldSpec, z_rows, j: int) -> list[int]:
    """The shifted row degrees delta of an order basis, at order j + 1 and shift (0, 1, .., 1), of
    the (c+1) x c matrix [S_1 .. S_c; -I_c], S_l(t) = sum_a z_{l,a} t^a for the c rows z of length
    j + 1 (Beckermann-Labahn, SIAM J. Matrix Anal. Appl. 15, 1994).

    Rows p_0, p_1..p_c are lists of polynomials (coefficient lists) that start at the identity.
    For each order s = 0..j and each column l the residual [t^s](p_0 S_l - p_l) is read off the
    polynomials; the row of least delta with a nonzero residual (the first on ties) clears the
    others' and is multiplied by t.  g in R_i has its windows g . z[b : b + i + 1] all zero iff
    the reversed g is p_0 of an element of shifted degree <= i, so the width-(i+1) Hankel kernel of
    the z has dimension sum_rho max(0, i - delta_rho + 1) for 0 <= i <= j (predictable degree).
    Written from polynomial rows, with no reference to `spaces._order_basis_degrees`."""
    F, c = field, len(z_rows)
    S = [[F.coerce(x) for x in z] for z in z_rows]
    rows = [[[F.one] if k == r else [] for k in range(c + 1)] for r in range(c + 1)]
    delta = [0] + [1] * c

    def at(poly, s):
        return poly[s] if 0 <= s < len(poly) else F.zero

    def residual(row, l, s):
        return F.coerce(sum(at(row[0], k) * at(S[l], s - k) for k in range(s + 1)) - at(row[l + 1], s))

    def minus(u, f, v):  # u - f.v
        n = max(len(u), len(v))
        return [F.coerce(at(u, k) - f * at(v, k)) for k in range(n)]

    for s in range(j + 1):
        for l in range(c):
            res = [residual(row, l, s) for row in rows]
            k = min((r for r in range(c + 1) if res[r]), key=delta.__getitem__)
            for r in range(c + 1):
                if r != k and res[r]:
                    f = F.coerce(Fraction(res[r]) / res[k])
                    rows[r] = [minus(u, f, v) for u, v in zip(rows[r], rows[k])]
            rows[k] = [[F.zero] + u for u in rows[k]]
            delta[k] += 1
    return delta


def brute_force_hilbert(space, max_degree):
    """H(R/ideal generated by the span of `space`) by degreewise spans.

    Independent of the GradedIdeal machinery: multiplies basis forms by
    all monomials directly and row-reduces.
    """
    from binforms.forms import BinaryForm, mul_form, monomial

    F = space.field
    j = space.degree
    dims = []
    for i in range(max_degree + 1):
        if i < j:
            dims.append(i + 1)
            continue
        rows = []
        for b in space.basis_forms():
            for a in range(i - j + 1):
                m = monomial(F, i - j - a, a)
                rows.append(mul_form(b, m).coeffs)
        mat = Matrix(F, tuple(rows), i + 1) if rows else Matrix(F, (), i + 1)
        dims.append((i + 1) - rref(mat).nrows)
    return dims


def oracle_first_inequivalent(W, sign: int, steps: int):
    """The first of R_{±1}W, R_{±2}W, ... (up to `steps`) not equivalent to W,
    each compared with W itself: the walk `related._first_inequivalent` ran
    before it compared each step with the one before."""
    from binforms.spaces import equivalent, shift

    out = W
    for _ in range(steps):
        out = shift(out, sign)
        if not equivalent(out, W):
            return out
    return None


def oracle_normalize_chain(indices) -> tuple[int, ...]:
    """Normal form of a chain by restarting from the left after every rewrite:
    the leftmost same-sign pair merges first, else the leftmost triple a, b, c
    with a c > 0 and |b| <= min(|a|, |c|) collapses to a + b + c (the loop
    `related.normalize_chain` ran before its one stack pass)."""
    idx = list(indices)
    changed = True
    while changed:
        changed = False
        for k in range(len(idx) - 1):
            if idx[k] * idx[k + 1] > 0:
                idx[k : k + 2] = [idx[k] + idx[k + 1]]
                changed = True
                break
        if changed:
            continue
        for k in range(len(idx) - 2):
            a, b, c = idx[k : k + 3]
            if a * c > 0 and abs(b) <= abs(a) and abs(b) <= abs(c):
                idx[k : k + 3] = [a + b + c]
                changed = True
                break
    return tuple(idx)


# ----- subspace choice -----------------------------------------------------------


def oracle_contained(inner, outer) -> bool:
    """inner ⊆ outer by plain elimination: the scalar Gauss-Jordan rank of
    outer's basis stacked on inner's stays dim outer.  `spaces.contained` reads
    normal forms off outer's dual vectors instead, with no elimination."""
    stacked = Matrix(outer.field, outer.mat.rows + inner.mat.rows, outer.degree + 1)
    return oracle_rref(stacked)[1] == outer.dim


def oracle_extend_inside(base, cap, target_dim: int):
    """Grow base to target_dim by adjoining the basis forms of cap one at a
    time, one sum per form tried (`closure._extend_inside` reads the same
    choice off one column rank profile); None if base is not inside cap or
    the target is out of range."""
    from binforms.spaces import space_sum, span

    if space_sum(base, cap).dim != cap.dim or not base.dim <= target_dim <= cap.dim:
        return None
    cur = base
    for f in cap.basis_forms():
        if cur.dim == target_dim:
            break
        bigger = space_sum(cur, span(cap.field, cap.degree, [f]))
        if bigger.dim > cur.dim:
            cur = bigger
    return cur


# ----- closure witnesses --------------------------------------------------------


def oracle_check_nose_pair(Nprime: OSequence, N: OSequence) -> tuple[int, int]:
    """The nose pair check that infers (d, j) from each sequence, target first,
    and compares them (`closure._check_nose_pair` reads them off the target and
    tests the source at them), each through `oracle_permissible_nose`."""
    params = []
    for S in (N, Nprime):
        if S.is_zero_ideal or S.constant != 0 or not S.prefix:
            raise PreconditionError("not a level-type sequence", N=str(S))
        j = len(S.prefix) - 1
        d = j + 1 - S.value(j)
        if not oracle_permissible_nose(S, d, j):
            raise PreconditionError("sequence is not a permissible nose", N=str(S))
        params.append((d, j))
    d, j = params[0]
    if params[1] != (d, j):
        raise PreconditionError("nose pair has mismatched parameters")
    if any(Nprime.value(i) > N.value(i) for i in range(j + 1)):
        raise PreconditionError("nose step needs N' <= N termwise")
    return d, j


def oracle_check_tail_pair(Tprime: OSequence, T: OSequence) -> tuple[int, int, int]:
    """The tail pair check that infers (d, j) from each sequence, as
    `oracle_check_nose_pair` does, through `oracle_permissible_tail`, and the walk's top."""
    params = []
    for S in (T, Tprime):
        if S.is_zero_ideal:
            raise PreconditionError("not a tail sequence", T=str(S))
        j = S.order()
        d = j + 1 - S.value(j)
        if not oracle_permissible_tail(S, d, j):
            raise PreconditionError("sequence is not a permissible tail", T=str(S))
        params.append((d, j))
    d, j = params[0]
    if params[1] != (d, j):
        raise PreconditionError("tail pair has mismatched parameters")
    top = max(Tprime.stabilization(), T.stabilization(), j) + 1
    if any(Tprime.value(i) < T.value(i) for i in range(j, top + 1)):
        raise PreconditionError("tail step needs T' >= T termwise")
    return d, j, top


def oracle_build_h(Iprime, H: OSequence, j: int):
    """build_h composed of the public halves: build_n on I'_0 .. I'_j under all
    of R above j, build_t on I' with its degrees below j zeroed, and their
    final ideals glued at j through graded_ideal (`closure.build_h` walks one
    component list and assembles only the glued ideal)."""
    from binforms.closure import BuildTrace, build_n, build_t
    from binforms.hilbert import nose_tail
    from binforms.ideals import _assemble_ideal, _with_unit_tail, graded_ideal, hilbert_function
    from binforms.spaces import zero_space

    F, Hp = Iprime.field, hilbert_function(Iprime)
    if Hp == H:
        return BuildTrace((), Iprime)
    N, T = nose_tail(H, j)
    top = max(Hp.stabilization(), T.stabilization(), j) + 1
    nose = build_n(_with_unit_tail(F, [Iprime.component(i) for i in range(j + 1)]), N)
    tail_comps = [zero_space(F, i) for i in range(j)] + [Iprime.component(i) for i in range(j, top + 1)]
    tail = build_t(_assemble_ideal(F, 0, tail_comps, Iprime.tail_gcd), T)
    In, It = nose.final_ideal, tail.final_ideal
    glued = [In.component(i) for i in range(j)] + [It.component(i) for i in range(j, top + 1)]
    return BuildTrace(nose.steps + tail.steps, graded_ideal(F, 0, glued, It.tail_gcd))


@contextmanager
def walked_halves():
    """Spy on build_h's two walks, which edit one component list in place: yields
    the (steps, half ideal) each ends at, the half assembled here as build_n and
    build_t assemble theirs.  The nose's half is comps[:j + 1] under all of R
    above j, read when the nose walk returns; the tail's is zeros below j and
    comps[j:], read when the tail walk returns."""
    from unittest import mock

    from binforms import closure
    from binforms.ideals import _assemble_ideal, _with_unit_tail
    from binforms.spaces import zero_space

    halves = []
    nose_steps, tail_steps = closure._nose_steps, closure._tail_steps

    def nose(comps, Nprime, N, d, j):
        steps = nose_steps(comps, Nprime, N, d, j)
        halves.append((steps, _with_unit_tail(comps[j].field, comps[: j + 1])))
        return steps

    def tail(comps, gcd, Tprime, T, d, j):
        steps, gcd = tail_steps(comps, gcd, Tprime, T, d, j)
        F = comps[j].field
        below = [zero_space(F, i) for i in range(j)]
        halves.append((steps, _assemble_ideal(F, 0, below + comps[j:], gcd)))
        return steps, gcd

    with mock.patch.object(closure, "_nose_steps", nose), \
            mock.patch.object(closure, "_tail_steps", tail):
        yield halves


# ----- one-step shifts by plain elimination ------------------------------------


def oracle_shift_up_once(m: Matrix) -> Matrix:
    """R_1V for V with basis m in R_j: one elimination of the 2 dim V rows
    y.v and x.v, for every V (`spaces` builds a block's next block in closed
    form and R_{k+1}B as x.R_kB + y^(k+1).B)."""
    rows = []
    for r in m.rows:
        rows.append((m.field.zero,) + r)  # y * v: y-exponent grows
        rows.append(r + (m.field.zero,))  # x * v
    return rref(Matrix(m.field, tuple(rows), m.ncols + 1))


def oracle_shift_down_once(m: Matrix) -> Matrix:
    """R_{-1}V for V with basis m in R_j, j >= 1: the kernel of the residues
    of x.u and y.u mod V on all j + 1 columns, for u over all of R_{j-1}
    (`spaces` solves on V's free columns only)."""
    F, j = m.field, m.ncols - 1
    # Canonical residue of the monomial e_k mod V: the basis is in RREF, so it
    # is e_k minus the basis row with pivot k, or e_k itself if k is no pivot.
    by_pivot = {next(i for i, c in enumerate(r) if c): r for r in m.rows}

    def residue(k: int) -> tuple:
        r = by_pivot.get(k)
        if r is None:
            return tuple(F.one if i == k else F.zero for i in range(j + 1))
        return tuple(F.zero if i == k else F.coerce(-c) for i, c in enumerate(r))

    # basis x^(j-1-k) y^k of R_{j-1}: x times it is e_k, y times it is e_{k+1};
    # column k of the matrix below is the residue pair of that basis form
    res = [residue(k) for k in range(j + 1)]
    cols = tuple(zip(*(res[k] + res[k + 1] for k in range(j))))
    return oracle_kernel(Matrix(F, cols, j))

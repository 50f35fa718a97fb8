"""Independent reference implementations used to pin expected values.

Each oracle deliberately takes a different route from the library code it
checks (double-annihilator instead of block elimination, sympy polynomial
arithmetic instead of coefficient convolution, brute-force enumeration
instead of closed formulas), so agreement is meaningful.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import sympy

from binforms.errors import PreconditionError
from binforms.fields import FieldSpec
from binforms.forms import BinaryForm, divide_form, require_pairing_char
from binforms.linalg import Matrix, kernel, rref, row_basis, stack
from binforms.osequence import OSequence, oseq

x, y = sympy.symbols("x y")


# ----- linear algebra -------------------------------------------------------


def oracle_rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Gauss-Jordan one scalar at a time through the FieldSpec operations,
    normalizing each pivot row before it clears its column.  Same contract
    as `linalg.rref`, which runs one integer kernel per field kind."""
    F = m.field
    rows = [list(r) for r in m.rows]
    pivots: list[int] = []
    r = 0
    for c in range(m.ncols):
        pr = next((i for i in range(r, len(rows)) if not F.is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not F.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
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
    red, _, pivots = rref(m)
    basis = []
    for fc in (c for c in range(m.ncols) if c not in pivots):
        v = [F.zero] * m.ncols
        v[fc] = F.one
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(red.rows[i][fc])
        basis.append(tuple(v))
    return row_basis(Matrix(F, tuple(basis), m.ncols))


def oracle_intersect(a: Matrix, b: Matrix) -> Matrix:
    """rowspace(A) ∩ rowspace(B) via double annihilators:
    rowspace(M) = ker(ker(M)) for the standard dot pairing."""
    return kernel(stack(kernel(a), kernel(b)))


def zassenhaus_intersect(a: Matrix, b: Matrix) -> Matrix:
    """rowspace(A) ∩ rowspace(B) by Zassenhaus block elimination: rows [x|x]
    for a, [y|0] for b; the right halves of the rows whose left half
    vanishes span the meet.  One `rref` of a different layout from
    `oracle_intersect`, so the two routes check each other."""
    F, n = a.field, a.ncols
    block = [r + r for r in a.rows] + [r + (F.zero,) * n for r in b.rows]
    red, rank_, _ = rref(Matrix(F, tuple(block), 2 * n))
    keep = [r[n:] for r in red.rows[:rank_] if all(F.is_zero(x) for x in r[:n])]
    return row_basis(Matrix(F, tuple(keep), n))


# ----- sympy bridge for binary forms ----------------------------------------


def _sym_domain(field: FieldSpec):
    return sympy.QQ if field.p is None else sympy.GF(field.p)


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
    lead = next(c for c in coeffs if not field.is_zero(c))
    inv = field.inv(lead)
    return tuple(field.mul(inv, c) for c in coeffs), deg


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
    return FormSpace(F, degree, row_basis(Matrix(F, rows, degree + 1)))


def divides(g: BinaryForm, f: BinaryForm) -> bool:
    try:
        divide_form(f, g)
        return True
    except PreconditionError:
        return False


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
            if F.is_zero(fu):
                continue
            Fv = big.coeffs[u + w]
            if F.is_zero(Fv):
                continue
            weight = _falling(j - u - w, i - u) * _falling(u + w, u)
            acc = F.add(acc, F.mul(F.mul(fu, Fv), F.coerce(weight)))
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
    """Transitive reduction of the partition route `le_by_partitions` over
    every pair of acceptable sequences, in enumeration order."""
    from binforms.hilbert import Cmp, enumerate_acceptable, le_by_partitions

    seqs = enumerate_acceptable(d, j)
    less = {(a, b) for a in seqs for b in seqs if le_by_partitions(a, b, d, j) is Cmp.LESS}
    return [
        (a, b)
        for a in seqs
        for b in seqs
        if (a, b) in less and not any((a, m) in less and (m, b) in less for m in seqs)
    ]



def oracle_hasse_edges(seqs: list, j: int) -> list:
    """Covers by the all-pairs scan: every LESS pair from the value comparison,
    then each pair (a, b) kept unless some member m of above[a] has b above
    it too; O(n^2) comparisons and an O(n^3) cover scan, in enumeration order."""
    from binforms.hilbert import Cmp, _le_values

    top = max(j, *(H.stabilization() for H in seqs)) + 1
    vals = [H.values(top) for H in seqs]
    above = {
        a: [b for b, vb in zip(seqs, vals) if _le_values(va, vb, j) is Cmp.LESS]
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


def oracle_enumerate_acceptable(d: int, j: int) -> list:
    """`enumerate_acceptable` with every sequence built and re-checked by the
    public, validating `hilbert_from_partitions`."""
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
                key = (-tau, c, tuple(-x for x in P), tuple(-x for x in Q))
                keyed.append((key, hilbert_from_partitions(P, Q, j, c)))
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
        dims.append((i + 1) - row_basis(mat).nrows)
    return dims

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

from binforms.fields import FieldSpec
from binforms.linalg import Matrix, kernel, row_basis, stack

x, y = sympy.symbols("x y")


# ----- linear algebra -------------------------------------------------------


def oracle_intersect(a: Matrix, b: Matrix) -> Matrix:
    """rowspace(A) ∩ rowspace(B) via double annihilators:
    rowspace(M) = ker(ker(M)) for the standard dot pairing."""
    return kernel(stack(kernel(a), kernel(b)))


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


# ----- apolarity and roots ---------------------------------------------------


def oracle_ann_component(W, i: int):
    """(Ann W)_i from per-monomial contractions: the Y^r coefficient of
    x^(i-k) y^k . w, over every basis element w and every r, is one linear
    equation on the coefficients f_k of f in R_i."""
    from binforms.forms import contract, form, monomial
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


# ----- partitions & counting -------------------------------------------------


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
    ann = kernel(space.mat)
    rows = tuple(
        tuple(w[a + t] for t in range(n + 1))
        for a in range(k + 1)
        for w in ann.rows
    )
    if not rows:
        return n + 1
    return kernel(Matrix(F, rows, n + 1)).nrows


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

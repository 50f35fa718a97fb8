"""Vector subspaces V of R_j and their shift calculus.

The central objects: R_s V for s > 0 is the span of all degree-s monomial
multiples; R_{-s} V = {f : R_s f is contained in V}.  tau(V) = dim R_1 V - dim V
measures how far V is from a principal block f.R_{j-c}; it controls the
number of generators of every ideal V determines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .errors import PreconditionError
from .fields import FieldSpec
from .forms import BinaryForm, gcd_form
from .linalg import (
    Matrix,
    contains_vector,
    kernel,
    row_basis,
    row_space_sum,
    zero_matrix,
)


@dataclass(frozen=True)
class FormSpace:
    field: FieldSpec
    degree: int
    mat: Matrix  # canonical RREF basis, no zero rows

    def __post_init__(self):
        if self.mat.ncols != self.degree + 1:
            raise ValueError("basis width must be degree + 1")

    @property
    def dim(self) -> int:
        return self.mat.nrows

    @property
    def cod(self) -> int:
        return self.degree + 1 - self.dim

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    @property
    def is_full(self) -> bool:
        return self.dim == self.degree + 1

    def basis_forms(self) -> tuple[BinaryForm, ...]:
        return tuple(BinaryForm(self.field, self.degree, r) for r in self.mat.rows)

    def contains(self, f: BinaryForm) -> bool:
        if f.degree != self.degree:
            return False
        return contains_vector(self.mat, f.coeffs)

    # The one-step rungs R_1V and R_{-1}V, built on first use and kept on the
    # instance (not as fields, so equality and hashing ignore them).  `shift`
    # walks these, so every rung of a space's ladder is built once.

    @cached_property
    def _up(self) -> FormSpace:
        return _shift_up_once(self)

    @cached_property
    def _down(self) -> FormSpace:
        return _shift_down_once(self)


def span(field: FieldSpec, degree: int, forms) -> FormSpace:
    """Span of forms or raw coefficient rows.  Forms of this field hold
    canonical scalars already; raw rows and forms of another field are
    coerced here, once."""
    rows = []
    for f in forms:
        if isinstance(f, BinaryForm):
            if f.degree != degree:
                raise PreconditionError("spanning form of wrong degree")
            if f.field == field:
                rows.append(f.coeffs)
                continue
            f = f.coeffs
        rows.append(tuple(field.coerce(c) for c in f))
    return FormSpace(field, degree, row_basis(Matrix(field, tuple(rows), degree + 1)))


def zero_space(field: FieldSpec, degree: int) -> FormSpace:
    return FormSpace(field, degree, zero_matrix(field, degree + 1))


def full_space(field: FieldSpec, degree: int) -> FormSpace:
    # the identity is already a canonical RREF basis
    one, zero = field.one, field.zero
    rows = tuple(
        tuple(one if c == k else zero for c in range(degree + 1)) for k in range(degree + 1)
    )
    return FormSpace(field, degree, Matrix(field, rows, degree + 1))


def space_sum(a: FormSpace, b: FormSpace) -> FormSpace:
    if a.degree != b.degree:
        raise PreconditionError("sum of spaces in different degrees")
    return FormSpace(a.field, a.degree, row_space_sum(a.mat, b.mat))


def contained(inner: FormSpace, outer: FormSpace) -> bool:
    """Whether inner is a subspace of outer (same degree).

    Both bases are canonical, so equal bases prove it without the rank test."""
    return inner == outer or space_sum(inner, outer).dim == outer.dim


def principal_space(f: BinaryForm, degree: int) -> FormSpace:
    """(f) in the given degree: f * R_{degree - deg f}, zero if degree < deg f."""
    if degree < f.degree or f.is_zero:
        return zero_space(f.field, degree)
    # x^(s-a) y^a f has f's coefficients moved a places right; they are
    # canonical scalars already, so the rows skip span()'s coercion.
    s, z = degree - f.degree, (f.field.zero,)
    rows = tuple(z * a + f.coeffs + z * (s - a) for a in range(s + 1))
    return FormSpace(f.field, degree, row_basis(Matrix(f.field, rows, degree + 1)))


# ----- shifts -------------------------------------------------------------------


def _shift_up_once(V: FormSpace) -> FormSpace:
    F, j = V.field, V.degree
    rows = []
    for r in V.mat.rows:
        rows.append((F.zero,) + r)          # y * f: y-exponent grows
        rows.append(r + (F.zero,))          # x * f
    return FormSpace(F, j + 1, row_basis(Matrix(F, tuple(rows), j + 2)))


def _shift_down_once(V: FormSpace) -> FormSpace:
    F, j = V.field, V.degree
    if j == 0:
        raise PreconditionError("shift below degree 0")
    if V.is_zero:
        return zero_space(F, j - 1)
    # Canonical residue of the monomial e_k mod V: the basis is in RREF, so it
    # is e_k minus the basis row with pivot k, or e_k itself if k is no pivot.
    by_pivot = {next(i for i, c in enumerate(r) if c): r for r in V.mat.rows}

    def residue(k: int) -> tuple:
        r = by_pivot.get(k)
        if r is None:
            return tuple(F.one if i == k else F.zero for i in range(j + 1))
        return tuple(F.zero if i == k else F.neg(c) for i, c in enumerate(r))

    # basis x^(j-1-k) y^k of R_{j-1}: x times it is e_k, y times it is e_{k+1}
    res = [residue(k) for k in range(j + 1)]
    rows = tuple(res[k] + res[k + 1] for k in range(j))
    A = Matrix(F, rows, 2 * (j + 1))
    return FormSpace(F, j - 1, kernel(A.transpose()))


def shift(V: FormSpace, s: int) -> FormSpace:
    """R_s V (s >= 0) or the colon space (s < 0); steps never mix signs.

    Walks V's memoized rungs, so repeated shifts of one space are free."""
    if s == 0:
        return V
    if V.degree + s < 0:
        raise PreconditionError(f"shift to negative degree {V.degree + s}")
    out = V
    for _ in range(abs(s)):
        out = out._up if s > 0 else out._down
    return out


def tau(V: FormSpace) -> int:
    return shift(V, 1).dim - V.dim


def gcd_of_space(V: FormSpace) -> BinaryForm:
    if V.is_zero:
        raise PreconditionError("gcd of the zero space")
    forms = V.basis_forms()
    g = forms[0]
    for f in forms[1:]:
        g = gcd_form(g, f)
        if g.degree == 0:
            break
    from .forms import monic

    return monic(g)


def equivalent(V: FormSpace, W: FormSpace) -> bool:
    """Whether V and W have the same ancestor ideal.

    Same degree: canonical bases are equal.  Different degrees: the higher
    space must be the up-shift of the lower and the two tau values agree
    (shifting inside the stable range preserves the ancestor ideal; a tau
    drop means the ideal changed).
    """
    if V.field != W.field:
        raise PreconditionError("field mismatch")
    if V.is_zero or W.is_zero:
        return V.is_zero and W.is_zero
    if V.degree == W.degree:
        return V.mat == W.mat
    lo, hi = (V, W) if V.degree < W.degree else (W, V)
    if shift(lo, hi.degree - lo.degree).mat != hi.mat:
        return False
    return tau(lo) == tau(hi)


def random_space(d: int, j: int, field: FieldSpec, seed) -> FormSpace:
    """Deterministic d-dimensional sample; redraws until full rank."""
    if not 0 <= d <= j + 1:
        raise PreconditionError(f"need 0 <= d <= j+1, got d={d}, j={j}")
    rng = random.Random(f"formspace|{seed}|{d}|{j}|{field.name}")
    while True:
        rows = tuple(tuple(field.random_scalar(rng) for _ in range(j + 1)) for _ in range(d))
        m = row_basis(Matrix(field, rows, j + 1))
        if m.nrows == d:
            return FormSpace(field, j, m)


# ----- JSON ---------------------------------------------------------------------


def space_to_json(V: FormSpace) -> dict:
    from .forms import form_to_json

    return {
        "degree": V.degree,
        "field": V.field.name,
        "basis": [form_to_json(f) for f in V.basis_forms()],
    }


def space_from_json(obj: dict, field: FieldSpec | None = None) -> FormSpace:
    from .forms import form_from_json

    try:
        fld = field or FieldSpec.from_name(obj["field"])
        degree = int(obj["degree"])
        basis = [form_from_json(fld, b) for b in obj["basis"]]
    except (KeyError, TypeError) as exc:
        raise PreconditionError(f"bad space JSON: {exc}") from None
    return span(fld, degree, basis)

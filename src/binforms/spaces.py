"""Vector subspaces V of R_j and their shift calculus.

R_s V (s > 0) is the span of all degree-s monomial multiples of V, and
R_{-s} V = {f : R_s f is contained in V}.  tau(V) = dim R_1 V - dim V
measures how far V is from a principal block f.R_{j-c}; it controls the
number of generators of every ideal V determines.  As xV ∩ yV = xy.R_{-1}V,
dim R_1V = 2 dim V - dim R_{-1}V, so `tau` reads whichever neighbour rung is
built.  `shift` walks one-step rungs, built once per space and kept on it:

* A principal block f.R_s (f monic, f = t^a g for t = y/x, k = deg f - a) needs no
  elimination: the row with pivot a+i is e_{a+i} with rho_{s+1-i} in the last k columns,
  rho_m being the remainders of 1/g: rho_0 = (-1, 0, ..., 0), rho_{m+1}[q] = rho_m[q+1]
  - rho_m[0] g[q+1], rho_m[k] = 0.  `_principal` reads f off the last row (its pivot is
  >= s in any RREF of s+1 rows), rejects most other spaces on one entry (rho_2[0] = g_2 -
  g_1^2 in the second-to-last row, g_2 = 0 if k = 1) and then compares every row.  R_{+-1}
  of a block is the block f.R_{s+-1}, built from (f, s +- 1) alone in O(1): its rows are
  written when first read.
* Rungs their dimension pins: R_1V = R_{j+1} iff dim R_{-1}V = 2 dim V - j - 2, i.e.
  iff V's 2 cod V free-column rows (below) are independent: one rank, tried if dim V +
  dim B >= j + 2.  R_{-1}V = 0 iff dim R_1V = 2 dim V, read off R_1V if built.
* Up, otherwise: R_{k+1}B = x.R_kB + y^(k+1).B, as x divides every degree-
  (k+1) monomial but y^(k+1).  A rung records k and its ladder base B's
  `ints` (a space would form a reference cycle), and x.R_kB is reduced, so
  one elimination takes dim R_kB + dim B rows.  Off a ladder, B = V, k = 0.
* Down, otherwise, R_{-1}V = {u : x.u, y.u in V}: each `integral_dual` vector z of V (one
  per free column) gives z[:j].u = 0 and z[1:].u = 0, so R_{-1}V is the kernel of those
  2 cod V rows.  V keeps their reversed RREF, which pins R_1V too.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property

from .errors import PreconditionError
from .fields import FieldSpec
from .forms import BinaryForm, form_from_json, form_to_json, gcd_rows, json_int, json_list, monic
from .linalg import (
    Matrix,
    contains_vector,
    from_ints,
    integral_dual,
    kernel_from,
    lazy_matrix,
    row_basis,
    rref_reversed,
    zero_matrix,
)


@dataclass(frozen=True)
class FormSpace:
    field: FieldSpec
    degree: int
    mat: Matrix  # canonical RREF basis, no zero rows

    def __post_init__(self):
        if self.degree < 0 or self.mat.ncols != self.degree + 1:
            raise PreconditionError("basis width must be degree + 1 >= 1", degree=self.degree)

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
        if f.field != self.field:
            raise PreconditionError("field mismatch")
        return f.degree == self.degree and contains_vector(self._dual, f.coeffs, self.field)

    # The one-step rungs R_1V and R_{-1}V, built on first use and kept on the
    # instance (not as fields, so equality and hashing ignore them).  `shift`
    # walks these, so every rung of a space's ladder is built once.

    @cached_property
    def _up(self) -> FormSpace:
        return _shift_up_once(self)

    @cached_property
    def _down(self) -> FormSpace:
        return _shift_down_once(self)

    @cached_property
    def _dual(self) -> tuple:
        """V's `integral_dual`: w is in V iff its dot with each vector is 0."""
        return integral_dual(self.mat)

    @cached_property
    def _residues(self) -> tuple:
        """`rref_reversed` of the 2 cod V rows z[:j], z[1:] over `_dual`, which kill exactly R_{-1}V."""
        j, dual = self.degree, self._dual
        return rref_reversed(from_ints(self.field, tuple(z[:j] for z in dual) + tuple(z[1:] for z in dual), j))

    @cached_property
    def _principal(self) -> BinaryForm | None:
        """The monic f with V = f.R_s, or None (closed-form blocks store it).  The last of V's s + 1
        RREF rows has its pivot at column >= s, so f is that row from column s on."""
        F, s, ints = self.field, self.dim - 1, self.mat.ints
        if self.is_zero:
            return None
        last = ints[-1]
        c = next(i for i, x in enumerate(last) if x)  # f = last[s:] / a leads at column c
        if s and c < self.degree:  # the one-entry pre-test, rho_2[0] = g_2 - g_1^2, on int rows
            pen, (a, g1, g2) = ints[-2], (last[c:c + 3] + (0,))[:3]  # g_i = last[c + i] / a
            if F.coerce(pen[c + 1] * a * a - next(filter(None, pen)) * (g2 * a - g1 * g1)):
                return None
        rows = self.mat.rows
        f = BinaryForm(F, self.degree - s, rows[-1][s:])
        return f if all(r == w for r, w in zip(reversed(rows), _block_rows(f, s))) else None


def _block_rows(f: BinaryForm, s: int):
    """The canonical basis rows of f.R_s (f monic), last row first: rho_1 = h = g[1:]; mod p over F_p."""
    p, zero, one = f.field.p, f.field.zero, f.field.one
    a = f.coeffs.index(one)  # f is monic: its first 1 leads
    h = rho = f.coeffs[a + 1:]
    for i in range(s, -1, -1):
        yield (zero,) * (a + i) + (one,) + (zero,) * (s - i) + rho
        c, rho = (rho[0], rho[1:] + (zero,)) if rho else (zero, rho)
        if c:
            rho = tuple((r - c * b) % p for r, b in zip(rho, h)) if p else tuple(r - c * b for r, b in zip(rho, h))


def span(field: FieldSpec, degree: int, forms) -> FormSpace:
    """Span of forms or raw coefficient rows.  Forms of this field hold
    canonical scalars already; raw rows and forms of another field are
    coerced here, once.  This is where rows of caller-chosen length enter,
    so their length is checked here and `Matrix` trusts it."""
    rows = []
    for f in forms:
        if isinstance(f, BinaryForm):
            if f.degree != degree:
                raise PreconditionError("spanning form of wrong degree")
            if f.field == field:
                rows.append(f.coeffs)
                continue
            f = f.coeffs
        row = tuple(field.coerce(c) for c in f)
        if len(row) != degree + 1:
            raise PreconditionError("spanning row of wrong length", degree=degree, length=len(row))
        rows.append(row)
    return FormSpace(field, degree, row_basis(Matrix(field, tuple(rows), degree + 1)))


def zero_space(field: FieldSpec, degree: int) -> FormSpace:
    return FormSpace(field, degree, zero_matrix(field, degree + 1))


def full_space(field: FieldSpec, degree: int) -> FormSpace:
    return principal_space(BinaryForm(field, 0, (field.one,)), degree)  # 1.R_degree


def space_sum(a: FormSpace, b: FormSpace) -> FormSpace:
    if a.degree != b.degree or a.field != b.field:
        raise PreconditionError("sum of spaces in different degrees or fields")
    return FormSpace(a.field, a.degree, row_basis(from_ints(a.field, a.mat.ints + b.mat.ints, a.degree + 1)))


def contained(inner: FormSpace, outer: FormSpace) -> bool:
    """Whether inner is a subspace of outer (same degree and field, else refused): equal
    canonical bases, or a zero normal form mod outer (read off its `_dual`) for each row."""
    if inner.degree != outer.degree or inner.field != outer.field:
        raise PreconditionError("containment of spaces in different degrees or fields")
    rows = inner.mat.ints
    return rows == outer.mat.ints or all(contains_vector(outer._dual, r, outer.field) for r in rows)


def principal_space(f: BinaryForm, degree: int) -> FormSpace:
    """(f) in the given degree: f * R_s, s = degree - deg f (zero if s < 0), rows written when first read."""
    if degree < f.degree or f.is_zero:
        return zero_space(f.field, degree)
    F, f, s = f.field, monic(f), degree - f.degree
    V = FormSpace(F, degree, lazy_matrix(F, s + 1, degree + 1, lambda: tuple(_block_rows(f, s))[::-1]))
    V.__dict__["_principal"] = f  # the memo, set the way cached_property would
    return V


# ----- shifts -------------------------------------------------------------------


def _shift_up_once(V: FormSpace) -> FormSpace:
    """R_1V: f.R_{s+1} for a block f.R_s, else x.R_kB + y^(k+1).B for V = R_kB."""
    F, j = V.field, V.degree
    if V.is_zero:
        return zero_space(F, j + 1)
    if V._principal is not None:
        return principal_space(V._principal, j + 1)
    base, k = V.__dict__.get("_ladder", (V.mat.ints, 0))  # x.f appends a 0
    if V.dim + len(base) >= j + 2 and _fills_next(V):  # dim R_{k+1}B <= dim R_kB + dim B
        return full_space(F, j + 1)
    rows = tuple(r + (0,) for r in V.mat.ints) + tuple((0,) * (k + 1) + b for b in base)
    up = FormSpace(F, j + 1, row_basis(from_ints(F, rows, j + 2)))
    up.__dict__["_ladder"] = (base, k + 1)  # the base's `ints`, never the base space
    return up


def _shift_down_once(V: FormSpace) -> FormSpace:
    """R_{-1}V: f.R_{s-1} for a block f.R_s, zero when pinned, else the kernel of V's residue rows."""
    F, j = V.field, V.degree  # j >= 1: `shift` refuses to go below degree 0
    f, up = V._principal, V.__dict__.get("_up")
    if f is not None:
        return principal_space(f, j - 1)  # zero below deg f
    if V.is_zero or up is not None and up.dim == 2 * V.dim:
        return zero_space(F, j - 1)
    return FormSpace(F, j - 1, kernel_from(V._residues))


def _fills_next(V: FormSpace) -> bool:
    """Whether R_1V = R_{j+1}, i.e. dim R_{-1}V = 2 dim V - (j + 2): V's residue rows are independent."""
    return V._residues[1] == 2 * V.cod


def shift(V: FormSpace, s: int) -> FormSpace:
    """R_s V (s >= 0) or the colon space (s < 0); steps never mix signs."""
    return _rungs(V, s)[-1]


def _rungs(V: FormSpace, s: int) -> list[FormSpace]:
    """[V, R_{±1}V, .., R_sV] in one walk of V's memoized rungs, so repeated shifts of one space are free."""
    if V.degree + s < 0:
        raise PreconditionError(f"shift to negative degree {V.degree + s}")
    return list(itertools.accumulate(range(abs(s)), lambda W, _: W._up if s > 0 else W._down, initial=V))


def _up_dim(W: FormSpace) -> int:
    """dim R_1W, read off R_{-1}W or a block's f if known, else off R_1W (built once; by one rank if full)."""
    if "_down" in W.__dict__:
        return 2 * W.dim - W._down.dim
    return W.dim + 1 if W.__dict__.get("_principal") is not None else W._up.dim


def tau(V: FormSpace) -> int:
    return _up_dim(V) - V.dim


def gcd_of_space(V: FormSpace) -> BinaryForm:
    if V.is_zero:
        raise PreconditionError("gcd of the zero space")
    return gcd_rows(V.field, V.degree, V.mat.ints)


def equivalent(V: FormSpace, W: FormSpace) -> bool:
    """Whether V and W have the same ancestor ideal, by one rule for every pair of degrees:
    the tau values agree (compared first: one rung each) and the higher space is the up-shift
    of the lower (shifting inside the stable range preserves the ancestor ideal; a tau drop
    means the ideal changed).  Same degree is a shift by 0; a zero space has tau 0, any other >= 1.
    """
    if V.field != W.field:
        raise PreconditionError("field mismatch")
    lo, hi = (V, W) if V.degree < W.degree else (W, V)
    return tau(lo) == tau(hi) and shift(lo, hi.degree - lo.degree).mat.ints == hi.mat.ints


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
    return {
        "degree": V.degree,
        "field": V.field.name,
        "basis": [form_to_json(f) for f in V.basis_forms()],
    }


def space_from_json(obj: dict, field: FieldSpec | None = None) -> FormSpace:
    try:
        fld = field or FieldSpec.from_name(obj["field"])
        degree = json_int(obj["degree"])
        basis = [form_from_json(fld, b) for b in json_list(obj["basis"])]
    except (KeyError, TypeError) as exc:
        raise PreconditionError(f"bad space JSON: {exc}") from None
    return span(fld, degree, basis)

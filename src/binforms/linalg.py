"""Dense exact linear algebra over a FieldSpec.

Everything is row-oriented: a Matrix is a tuple of rows and the row space
is the object of interest.  A Matrix trusts its shape: nothing checks that
each row has `ncols` entries (rows of caller-chosen length enter only
through `spaces.span`, which does).  All span questions (equality,
membership, sum, kernel) reduce to exact RREF, which is idempotent and
canonical, so two spaces are equal iff their basis matrices are equal.
Entries must already be canonical scalars of the field, or over Q integer
rows (`from_ints`): nothing here converts them, since values are made
canonical once, where they enter the system (`forms.form`, `spaces.span`,
the JSON readers).  Over Q rows are integer rows from where they enter
(`span`, the closed-form blocks) until the output: a Matrix builds its
Fraction `rows` only when they are read.

There are two entry points, and the other modules reach both through this module's globals,
never by name.  `rref` returns the basis it found: a rank is its `nrows`, its pivots `pivots`;
`kernel` calls it too.  `echelon_extend` extends an echelon basis keyed by lead with no
back-substitution: `spaces` walks down on it, so rebinding `linalg.rref` alone no longer sees
the down-rungs' work, and rebinding both sees every elimination.  `integral_dual`,
`contains_vector` and `hankel` (the one builder of stacked Hankel windows: catalecticants)
eliminate nothing.  Once per call, `rref` picks a Gauss-Jordan kernel by field, and
`echelon_extend` reduces each row the same way:

* F_p: rows are plain int lists reduced with a local `p`.  A pivot row is
  scaled by the inverse of its pivot only when that is not 1.  Each row with
  a nonzero entry f in the pivot column c is updated in place: entry c set
  to 0, and row[k] -= f * prow[k] mod p only at the pivot row's support, its
  nonzero columns right of c (zero to the left), listed once per pivot and
  only when some row needs clearing.  Nothing is allocated per row.
* Q: integer rows (`Matrix.ints`) in and out, no Fraction built, eliminated
  fraction-free: a pivot row is divided by its content, sign included, when
  chosen, and row <- (a/g) row - (f/g) pivot row for pivot entry a, entry f,
  g = gcd(a, f), the subtraction made only at the pivot row's support, then
  divided by its content in a new list.  A row held after any step is
  primitive and proportional to a vector of minors of the input made
  primitive, so its entries never exceed that input's Hadamard bound prod_i
  max(1, |row_i|_2) (Bareiss, Math. Comp. 22, 1968, does so by exact division).

Both kernels give the same canonical RREF, its pivot rows only: primitive
integer rows over Q (Fraction entries when `rows` is read) and residues in
[0, p) over F_p.  Sizes here stay small (the
up-ladder of a degree-j space climbs to about degree 2j: 79 for j = 40), so dense
elimination is the right tool; exact arithmetic needs no pivoting heuristics.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .fields import FieldSpec, Scalar


class _RowsOnFirstRead:
    """`Matrix.rows` left out, on first read: `lazy_matrix`'s over F_p, else each `ints` row over its lead."""

    def __get__(self, m, owner=None):
        if m is None:
            raise AttributeError("rows")  # no class-level default: the field stays required
        if m.field.p:
            rows = m._write().rows
        else:
            leads = (next(filter(None, r), 1) for r in m.ints)
            rows = tuple(tuple(Fraction(x, a) for x in r) for r, a in zip(m.ints, leads))
        object.__setattr__(m, "rows", rows)
        return rows


@dataclass(frozen=True)
class Matrix:
    """`rows` hold canonical scalars, `ints` the rows the kernels eliminate: `rows` over F_p, else integer
    rows (primitive, leads positive, in an RREF).  `from_ints` over Q keeps only `ints`, `lazy_matrix` a thunk
    (`_write`) making an equal Matrix; the rest is computed on first read and stored by `object.__setattr__`,
    as reading `__dict__` would make CPython build the instance's dict, which slows every later attribute read."""

    field: FieldSpec
    rows: tuple[tuple[Scalar, ...], ...] = _RowsOnFirstRead()
    ncols: int
    _ints = None  # not a field: set by `from_ints` over Q, else on the first read of `ints` over Q
    _write = None  # not a field: `lazy_matrix`'s thunk

    def __post_init__(self):  # nrows: a plain attribute, not a field, read often and building no rows
        object.__setattr__(self, "nrows", len(self.rows))

    @property
    def ints(self) -> tuple[tuple[int, ...], ...]:
        if self.field.p:
            return self.rows
        if self._ints is None:  # a lazy matrix takes the made Matrix's, else each row of Fractions is cleared
            ints = self._write().ints if self._write else tuple(tuple(_integer_row(r)) for r in self.rows)
            object.__setattr__(self, "_ints", ints)
        return self._ints


def _bare(field: FieldSpec, ncols: int, nrows: int, name: str, value) -> Matrix:  # no `rows` yet
    m = object.__new__(Matrix)
    for attr in (("field", field), ("ncols", ncols), ("nrows", nrows), (name, value)):
        object.__setattr__(m, *attr)
    return m


def from_ints(field: FieldSpec, ints: tuple, ncols: int) -> Matrix:
    """The Matrix with these `ints` (tuples of ints); over Q its `rows` are computed on first read."""
    return Matrix(field, ints, ncols) if field.p else _bare(field, ncols, len(ints), "_ints", ints)


def lazy_matrix(field: FieldSpec, nrows: int, ncols: int, write) -> Matrix:
    """The Matrix equal to the one `write()` makes, which is called on the first read of `rows` or `ints`."""
    return _bare(field, ncols, nrows, "_write", write)


def zero_matrix(field: FieldSpec, ncols: int) -> Matrix:
    return from_ints(field, (), ncols)


def hankel(field: FieldSpec, rows: Sequence[tuple[int, ...]], width: int) -> Matrix:
    """The Hankel windows z[r : r + width] of int rows z of one length n, stacked offset-major (every
    z[0:width], then every z[1:width + 1], ..): n - width + 1 windows per row, none if width > n."""
    n = len(rows[0]) if rows else width
    return from_ints(field, tuple(z[r : r + width] for r in range(n - width + 1) for z in rows), width)


def rref(m: Matrix) -> Matrix:
    """The canonical basis of m's row space: its reduced row echelon form, with no zero row.

    Leading entries are 1 and pivot columns are cleared, so two matrices
    have one row space iff their `rref`s are equal.
    """
    p = m.field.p
    return from_ints(m.field, _rref_fp(m.ints, m.ncols, p) if p else _rref_q(m.ints, m.ncols), m.ncols)


def pivots(m: Matrix) -> tuple[int, ...]:
    """The pivot columns of an RREF basis: where its rows lead."""
    return tuple(next(compress(count(), r)) for r in m.ints)


def _pivot_walk(rows: list[list], ncols: int):
    """Yield (r, c) for each pivot in turn: c is the first column in which a
    row at index >= r is nonzero, and the first such row has been swapped
    into place r.  The caller clears column c before resuming."""
    n = len(rows)
    r = 0
    for c in range(ncols):
        if r == n:
            return
        for pr in range(r, n):
            if rows[pr][c]:
                break
        else:
            continue
        rows[pr], rows[r] = rows[r], rows[pr]
        yield r, c
        r += 1


def _rref_fp(rows_in, ncols: int, p: int):
    """Gauss-Jordan on int rows with residues in [0, p), updated in place over each pivot row's support."""
    rows = [list(r) for r in rows_in]
    rank = 0
    for r, c in _pivot_walk(rows, ncols):
        prow = rows[r]
        a = prow[c]
        if a != 1:
            inv = pow(a, -1, p)
            prow[c:] = [x * inv % p for x in prow[c:]]
        # No entry changes where the pivot row is zero (left of c, among others);
        # its support is listed for the first row to clear, as many pivots clear none.
        nz = None
        for row in rows:
            f = row[c]
            if f and row is not prow:
                if nz is None:
                    nz = [k for k in range(c + 1, ncols) if prow[k]]
                row[c] = 0
                for k in nz:
                    row[k] = (row[k] - f * prow[k]) % p
        rank = r + 1
    return tuple(map(tuple, rows[:rank]))


def _rref_q(rows_in, ncols: int):
    """Fraction-free Gauss-Jordan on integer rows: primitive rows out, pivot entries positive."""
    rows = [list(r) for r in rows_in]
    rank = 0
    for r, c in _pivot_walk(rows, ncols):
        prow = rows[r]
        g = gcd(*prow) if prow[c] > 0 else -gcd(*prow)
        if g != 1:
            prow = rows[r] = [x // g for x in prow]
        a = prow[c]
        nz = None
        for i, row in enumerate(rows):
            f = row[c]
            if not f or i == r:
                continue
            if nz is None:
                nz = [k for k in range(c + 1, ncols) if prow[k]]
            g = gcd(a, f)
            ag, fg = a // g, f // g
            # Scaled whole (rows below r are zero left of c), in a new list: `rows` holds primitive rows.
            new = [ag * x for x in row]
            new[c] = 0
            for k in nz:
                new[k] -= fg * prow[k]
            rows[i] = _primitive(new)
        rank = r + 1
    return tuple(map(tuple, rows[:rank]))


def echelon_extend(field: FieldSpec, basis: dict, rows) -> dict:
    """`basis`, independent int rows keyed by their leads (first nonzero columns), extended in place by
    `rows`: each is reduced against it until its first nonzero entry is at no lead, as in `_rref_fp` (at
    the basis row's support, each entry taken mod p only when read as a lead) or `_rref_q` (fraction-free,
    made primitive after each step), then normalized (lead 1 over F_p, primitive with a positive lead over
    Q) and added, or dropped if zero; once it has a row per column, it spans them all and the rest are
    dropped unread.  No back-substitution: the basis is in echelon form, not reduced."""
    p = field.p
    for row in rows:
        if len(basis) == len(row):
            break
        row, n, c = list(row), len(row), 0
        while c < n:
            f = row[c] % p if p else row[c]
            if f:
                b = basis.get(c)
                if b is None:
                    break
                row[c] = 0
                if p:  # at most n steps: |row[k]| < (n + 1) p^2
                    for k in range(c + 1, n):
                        y = b[k]
                        if y:
                            row[k] -= f * y
                else:
                    g = gcd(b[c], f)
                    a, f = b[c] // g, f // g
                    for k in range(c + 1, n):
                        row[k] = a * row[k] - f * b[k]
                    row = _primitive(row)
            c += 1
        else:
            continue  # reduced to zero
        g = pow(row[c], -1, p) if p else gcd(*row) if row[c] > 0 else -gcd(*row)
        basis[c] = tuple(x * g % p for x in row) if p else tuple(x // g for x in row)
    return basis


def _integer_row(row) -> list[int]:
    """The primitive integer row proportional to a row of Fractions."""
    dens = [x.denominator for x in row]
    nums = [x.numerator for x in row]
    den = lcm(*dens)
    if den != 1:
        nums = [x * (den // d) for x, d in zip(nums, dens)]
    return _primitive(nums)


def _primitive(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries (a zero row stays zero)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def kernel(m: Matrix) -> Matrix:
    """Canonical basis (as rows) of {x : m . x = 0}, from one elimination: the `integral_dual` vectors of
    the `rref` of m with its columns reversed (lead at a free column, other entries at pivots left of
    it), reversed back and listed last first."""
    red = rref(from_ints(m.field, tuple(r[::-1] for r in m.ints), m.ncols))
    return from_ints(m.field, tuple(z[::-1] for z in reversed(integral_dual(red))), m.ncols)


def integral_dual(m: Matrix) -> tuple:
    """A basis of kernel(m) for an RREF basis m, read off `m.ints`: for each free column f, e_f
    minus column f at the pivots, over Q times the lcm of the pivot entries left of f, made
    primitive.  Its dot with w is (over Q a multiple of) entry f of w's normal form."""
    p, rows, n = m.field.p, m.ints, m.ncols
    cols = pivots(m)
    leads = [r[c] for r, c in zip(rows, cols)]
    out = []
    for f in sorted(set(range(n)).difference(cols)):
        k = bisect(cols, f)
        v = [0] * n
        v[f] = den = 1 if p else lcm(*leads[:k])
        for i in range(k):
            v[cols[i]] = -rows[i][f] % p if p else -rows[i][f] * (den // leads[i])
        out.append(tuple(v) if p else tuple(_primitive(v)))
    return tuple(out)


def contains_vector(dual: Sequence[Sequence[int]], vec: Sequence[Scalar], field: FieldSpec) -> bool:
    """Membership of vec in the row space whose orthogonal complement `dual` spans, any basis of it (an
    `integral_dual`, an `echelon_extend` basis), with no elimination: vec is in it iff every dot is 0.
    Over Q vec may be integers or Fractions, dotted exactly as they are: a zero test ignores scale."""
    p = field.p
    return not any(sum(map(mul, z, vec)) % p if p else sum(map(mul, z, vec)) for z in dual)

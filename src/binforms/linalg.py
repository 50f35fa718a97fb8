"""Dense exact linear algebra over a FieldSpec.

Everything is row-oriented: a Matrix is a tuple of rows and the row space
is the object of interest.  A Matrix trusts its shape: nothing checks that
each row has `ncols` entries (rows of caller-chosen length enter only
through `spaces.span`, which does).  All span questions (equality,
membership, sum, kernel) reduce to exact RREF, which is idempotent and
canonical, so two spaces are equal iff their basis matrices are equal.
Entries must already be canonical scalars of the field: nothing here
converts them, since values are made canonical once, where they enter the
system (`forms.form`, `spaces.span`, the JSON readers).

`rref` is the one entry point: `row_basis`, `rank` (which `waring` and `verify` call),
`rref_reversed` (which `kernel` and `spaces` call) and `closure._extend_inside` reach it
through this module's global, never by name, so rebinding `linalg.rref` sees every
elimination; `kernel_from` and `contains_vector` eliminate nothing.  Once per call, it
picks a Gauss-Jordan kernel by field:

* F_p: rows are plain int lists reduced with a local `p`.  A pivot row is
  scaled by the inverse of its pivot only when that is not 1, and rows are
  updated from the pivot column on, since the pivot row is zero to its left.
* Q: each row's denominators are cleared once, leaving primitive integer
  rows, which are eliminated fraction-free: row <- (a/g) row - (f/g) pivot
  row for pivot entry a, entry f and g = gcd(a, f), then divided by its
  content.  A row held after any step is primitive and proportional to a
  vector of minors of the cleared input, so its entries never exceed that
  input's Hadamard bound prod_i max(1, |row_i|_2) (Bareiss, Math. Comp. 22,
  1968, keeps the same bound by exact division).  Fractions are built only
  in the last pass, which divides each pivot row by its pivot.

Both kernels return the same canonical RREF, with Fraction entries over Q
and residues in [0, p) over F_p.  Sizes here stay small (the up-ladder of a
degree-j space climbs to about degree 2j: 79 for j = 40), so dense
elimination is the right tool; exact arithmetic needs no pivoting heuristics.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .fields import FieldSpec, Scalar


@dataclass(frozen=True)
class Matrix:
    field: FieldSpec
    rows: tuple[tuple[Scalar, ...], ...]
    ncols: int

    @property
    def nrows(self) -> int:
        return len(self.rows)


def zero_matrix(field: FieldSpec, ncols: int) -> Matrix:
    return Matrix(field, (), ncols)


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form, rank, pivot columns.

    Shape is preserved: zero rows sink to the bottom.  Leading entries are
    1 and pivot columns are cleared, so the result is the canonical form
    of the row space (padded with zero rows).
    """
    p = m.field.p
    if p is None:
        rows, pivots = _rref_q(m.rows, m.ncols)
    else:
        rows, pivots = _rref_fp(m.rows, m.ncols, p)
    return Matrix(m.field, rows, m.ncols), len(pivots), pivots


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
    """Gauss-Jordan on int rows with residues in [0, p)."""
    rows = [list(r) for r in rows_in]
    pivots = []
    for r, c in _pivot_walk(rows, ncols):
        prow = rows[r]
        a = prow[c]
        if a != 1:
            inv = pow(a, -1, p)
            prow[c:] = [x * inv % p for x in prow[c:]]
        # Every row at index >= r is zero left of column c, the pivot row
        # included, so columns < c never change.
        tail = prow[c:]
        for row in rows:
            f = row[c]
            if f and row is not prow:
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
        pivots.append(c)
    return tuple(tuple(row) for row in rows), tuple(pivots)


def _rref_q(rows_in, ncols: int):
    """Fraction-free Gauss-Jordan on primitive integer rows."""
    rows = [_integer_row(row) for row in rows_in]
    pivots = []
    for r, c in _pivot_walk(rows, ncols):
        prow = rows[r]
        a = prow[c]
        tail = prow[c:]
        for i, row in enumerate(rows):
            f = row[c]
            if not f or i == r:
                continue
            g = gcd(a, f)
            ag, fg = a // g, f // g
            new = [ag * x - fg * y for x, y in zip(row[c:], tail)]
            # Rows below r are zero left of c; earlier pivot rows are not,
            # and there the whole row is scaled by a/g.
            head = [ag * x for x in row[:c]] if i < r else row[:c]
            rows[i] = _primitive(head + new)
        pivots.append(c)
    zero = Fraction(0)
    out = [
        tuple(Fraction(x, row[c]) if x else zero for x in row)
        for row, c in zip(rows, pivots)
    ]
    out += [(zero,) * ncols for _ in range(len(rows) - len(pivots))]  # builds nothing at full rank
    return tuple(out), tuple(pivots)


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


def row_basis(m: Matrix) -> Matrix:
    """Canonical basis of the row space: RREF with zero rows dropped."""
    F = m.field
    red, rank, _ = rref(m)
    return Matrix(F, red.rows[:rank], m.ncols)


def rank(m: Matrix) -> int:
    return rref(m)[1]


def stack(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.field, a.rows + b.rows, a.ncols)


def row_space_sum(a: Matrix, b: Matrix) -> Matrix:
    return row_basis(stack(a, b))


def kernel(m: Matrix) -> Matrix:
    """Canonical basis (as rows) of {x : m . x = 0}, from one elimination."""
    return kernel_from(rref_reversed(m))


def rref_reversed(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """`rref` of m with its columns reversed: m's rank, and its kernel by `kernel_from`."""
    return rref(Matrix(m.field, tuple(r[::-1] for r in m.rows), m.ncols))


def kernel_from(reduced: tuple[Matrix, int, tuple[int, ...]]) -> Matrix:
    """kernel(m) read off `rref_reversed(m)`: the `free_dual` vectors of that RREF (1 at a free
    column, other entries at pivots left of it), reversed back and listed last first."""
    red, rank_, pivots = reduced
    dual = free_dual(Matrix(red.field, red.rows[:rank_], red.ncols), pivots)
    return Matrix(red.field, tuple(z[::-1] for z in reversed(dual)), red.ncols)


def free_dual(m: Matrix, pivots: Sequence[int] | None = None) -> tuple:
    """A basis of kernel(m) for an RREF basis m (its pivots given or found),
    read off without elimination: e_f minus column f at the pivots, for each
    free column f in turn; its dot with w is entry f of w's normal form."""
    F, n = m.field, m.ncols
    pivots = pivots or [next(c for c, x in enumerate(r) if x) for r in m.rows]
    pivot_set = set(pivots)
    out = []
    for f in (c for c in range(n) if c not in pivot_set):
        v = [F.zero] * n
        v[f] = F.one
        for i in range(bisect(pivots, f)):
            v[pivots[i]] = F.coerce(-m.rows[i][f])
        out.append(tuple(v))
    return tuple(out)


def integral_dual(m: Matrix) -> tuple:
    """`free_dual(m)`, over Q each vector scaled to a primitive integer one: it kills the same vectors."""
    return free_dual(m) if m.field.p else tuple(tuple(_integer_row(z)) for z in free_dual(m))


def contains_vector(dual: Sequence[Sequence[int]], vec: Sequence[Scalar], field: FieldSpec) -> bool:
    """Membership of vec in the row space with `integral_dual` dual, with no elimination:
    vec's dots with it are (over Q, multiples of) the free entries of vec's normal form."""
    p = field.p
    vec = vec if p else _integer_row(vec)
    return not any(sum(map(mul, z, vec)) % p if p else sum(map(mul, z, vec)) for z in dual)

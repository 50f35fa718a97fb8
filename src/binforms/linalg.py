"""Dense exact linear algebra over a FieldSpec.

Everything is row-oriented: a Matrix is a tuple of rows and the row space
is the object of interest.  All span questions (equality, membership,
sum, kernel) reduce to exact RREF, which is idempotent and canonical, so
two spaces are equal iff their basis matrices are equal.  Entries must
already be canonical scalars of the field: nothing here converts them,
since values are made canonical once, where they enter the system
(`forms.form`, `spaces.span`, the JSON readers).

Sizes here stay small (degree <= ~40), so dense Gauss-Jordan is the right
tool; no pivoting heuristics are needed for exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fields import FieldSpec, Scalar


@dataclass(frozen=True)
class Matrix:
    field: FieldSpec
    rows: tuple[tuple[Scalar, ...], ...]
    ncols: int

    def __post_init__(self):
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def transpose(self) -> "Matrix":
        cols = tuple(tuple(r[c] for r in self.rows) for c in range(self.ncols))
        return Matrix(self.field, cols, self.nrows)


def zero_matrix(field: FieldSpec, ncols: int) -> Matrix:
    return Matrix(field, (), ncols)


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form, rank, pivot columns.

    Shape is preserved: zero rows sink to the bottom.  Leading entries are
    1 and pivot columns are cleared, so the result is the canonical form
    of the row space (padded with zero rows).
    """
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


def row_basis(m: Matrix) -> Matrix:
    """Canonical basis of the row space: RREF with zero rows dropped."""
    F = m.field
    red, rank, _ = rref(m)
    return Matrix(F, red.rows[:rank], m.ncols)


def rank(m: Matrix) -> int:
    return rref(m)[1]


def stack(a: Matrix, b: Matrix) -> Matrix:
    if a.ncols != b.ncols or a.field != b.field:
        raise ValueError("shape/field mismatch")
    return Matrix(a.field, a.rows + b.rows, a.ncols)


def row_space_sum(a: Matrix, b: Matrix) -> Matrix:
    return row_basis(stack(a, b))


def kernel(m: Matrix) -> Matrix:
    """Canonical basis (as rows) of {x : m . x = 0}."""
    F = m.field
    red, _, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(m.ncols) if c not in pivot_set):
        v = [F.zero] * m.ncols
        v[fc] = F.one
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(red.rows[i][fc])
        basis.append(tuple(v))
    return row_basis(Matrix(F, tuple(basis), m.ncols))


def contains_vector(space: Matrix, vec: Sequence[Scalar]) -> bool:
    """Membership of vec in the row space (space should be a basis matrix)."""
    probe = Matrix(space.field, space.rows + (tuple(vec),), space.ncols)
    return rank(probe) == rank(space)


import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from binforms.fields import GF, QQ, FieldSpec
from binforms.linalg import (
    Matrix,
    contains_vector,
    kernel,
    rank,
    row_basis,
    row_space_sum,
    rref,
    stack,
    zero_matrix,
)
from oracles import oracle_intersect, zassenhaus_intersect

FIELDS = [QQ, GF(5), GF(101)]


def matrix(field, rows, ncols=None):
    """Test input: raw integer rows coerced into canonical scalars.  The
    library's Matrix trusts its entries; coercion happens at its boundary."""
    rows = tuple(tuple(field.coerce(x) for x in r) for r in rows)
    return Matrix(field, rows, len(rows[0]) if ncols is None else ncols)


def ident(field, n):
    return matrix(field, [[1 if i == k else 0 for k in range(n)] for i in range(n)])


def test_rref_identity():
    m = ident(QQ, 2)
    red, rk, piv = rref(m)
    assert red == m and rk == 2 and piv == (0, 1)


def test_rref_zero():
    m = matrix(QQ, [[0, 0, 0]] * 3)
    red, rk, piv = rref(m)
    assert red == m and rk == 0 and piv == ()


def test_rref_dependent_rows():
    red, rk, piv = rref(matrix(QQ, [[1, 2], [2, 4]]))
    assert red.rows == ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(0)))
    assert rk == 1 and piv == (0,)


def test_rref_mod_p():
    # 2x = 1 has solution x = 3 in F_5
    red, rk, _ = rref(matrix(GF(5), [[2, 1]]))
    assert red.rows == ((1, 3),)


def test_sum_basis_vectors():
    a = matrix(QQ, [[1, 0]])
    b = matrix(QQ, [[0, 1]])
    assert row_space_sum(a, b) == ident(QQ, 2)


def test_sum_idempotent():
    v = matrix(QQ, [[1, 2, 3], [0, 1, 1]])
    assert row_space_sum(v, v) == row_basis(v)


def test_sum_two_lines():
    s = row_space_sum(matrix(QQ, [[1, 1, 0]]), matrix(QQ, [[0, 1, 1]]))
    assert s.nrows == 2
    assert contains_vector(s, (Fraction(1), Fraction(0), Fraction(-1)))


def test_intersect_self():
    v = row_basis(matrix(QQ, [[1, 2, 3], [0, 1, 1]]))
    assert zassenhaus_intersect(v, v) == v


def test_intersect_transverse_lines():
    a = matrix(QQ, [[1, 0]])
    b = matrix(QQ, [[0, 1]])
    assert zassenhaus_intersect(a, b).nrows == 0


def test_intersect_two_planes_in_k3():
    a = matrix(QQ, [[1, 0, 0], [0, 1, 0]])
    b = matrix(QQ, [[1, 0, 1], [0, 1, 1]])
    line = zassenhaus_intersect(a, b)
    # (1,-1,0) is in both; pinned from the kernel-of-stacked-matrix oracle
    assert line == oracle_intersect(a, b)
    assert line.nrows == 1
    assert contains_vector(line, (Fraction(1), Fraction(-1), Fraction(0)))


def test_kernel_identity():
    assert kernel(ident(QQ, 3)).nrows == 0


def test_kernel_zero_map():
    k = kernel(matrix(QQ, [[0, 0, 0], [0, 0, 0]]))
    assert k == ident(QQ, 3)


def test_kernel_sum_functional():
    k = kernel(matrix(QQ, [[1, 1, 1]]))
    assert k.nrows == 2
    for row in k.rows:
        assert sum(row) == 0


# ---------------------------------------------------------------- properties


@st.composite
def mats(draw, field=None, max_dim=5):
    fld = field or draw(st.sampled_from(FIELDS))
    nr = draw(st.integers(0, max_dim))
    nc = draw(st.integers(1, max_dim))
    rows = draw(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        )
    )
    return matrix(fld, rows, ncols=nc)


@st.composite
def mat_pairs(draw, max_dim=5):
    fld = draw(st.sampled_from(FIELDS))
    nc = draw(st.integers(1, max_dim))
    def one():
        nr = draw(st.integers(0, max_dim))
        rows = draw(
            st.lists(
                st.lists(st.integers(-9, 9), min_size=nc, max_size=nc),
                min_size=nr,
                max_size=nr,
            )
        )
        return matrix(fld, rows, ncols=nc)
    return one(), one()


@given(mats())
@settings(max_examples=150, deadline=None)
def test_rref_idempotent(m):
    red, rk, piv = rref(m)
    again, rk2, piv2 = rref(red)
    assert again == red and rk2 == rk and piv2 == piv
    assert list(piv) == sorted(piv)
    assert rk == sum(1 for r in red.rows if any(not m.field.is_zero(v) for v in r))


@given(mat_pairs())
@settings(max_examples=150, deadline=None)
def test_grassmann_identity(pair):
    a, b = pair
    s = row_space_sum(a, b)
    i = zassenhaus_intersect(a, b)
    assert s.nrows + i.nrows == rank(a) + rank(b)


@given(mat_pairs())
@settings(max_examples=100, deadline=None)
def test_intersect_matches_oracle(pair):
    a, b = pair
    assert zassenhaus_intersect(a, b) == oracle_intersect(a, b)


@given(mats())
@settings(max_examples=150, deadline=None)
def test_rank_nullity_and_kernel_membership(m):
    k = kernel(m)
    assert rank(m) + k.nrows == m.ncols
    F = m.field
    for kr in k.rows:
        for mr in m.rows:
            acc = F.zero
            for a, b in zip(mr, kr):
                acc = F.add(acc, F.mul(a, b))
            assert F.is_zero(acc)


@given(mat_pairs())
@settings(max_examples=100, deadline=None)
def test_intersection_contained_in_both(pair):
    a, b = pair
    inter = zassenhaus_intersect(a, b)
    ra, rb = row_basis(a), row_basis(b)
    for row in inter.rows:
        assert contains_vector(ra, row)
        assert contains_vector(rb, row)

import pytest
import random
import sys
from fractions import Fraction
from math import gcd, lcm, prod

import sympy
from hypothesis import example, given, settings, strategies as st

from binforms import linalg
from binforms.fields import GF, QQ, FieldSpec
from binforms.linalg import (
    Matrix,
    contains_vector,
    hankel,
    integral_dual,
    kernel,
    rref,
    zero_matrix,
)
from binforms.spaces import FormSpace, space_sum
from oracles import oracle_intersect, oracle_kernel, oracle_rref, zassenhaus_intersect

FIELDS = [QQ, GF(5), GF(101)]
KERNEL_FIELDS = [GF(2), GF(3), GF(7), GF(101), GF(10007), GF(2**61 - 1), QQ]
BIG = 2**128


def matrix(field, rows, ncols=None):
    """Test input: raw integer rows coerced into canonical scalars.  The
    library's Matrix trusts its entries; coercion happens at its boundary."""
    rows = tuple(tuple(field.coerce(x) for x in r) for r in rows)
    return Matrix(field, rows, len(rows[0]) if ncols is None else ncols)


def inside(space, vec):
    """Membership of vec in the row space of the basis matrix space."""
    return contains_vector(integral_dual(space), vec, space.field)


def row_space_sum(a, b):
    """The sum of two row spaces, by `spaces.space_sum` on the spaces they span."""
    return space_sum(*(FormSpace(m.field, m.ncols - 1, rref(m)) for m in (a, b))).mat


def ident(field, n):
    return matrix(field, [[1 if i == k else 0 for k in range(n)] for i in range(n)])


def assert_same_matrix(got, want):
    assert got == want
    p = got.field.p
    for grow, wrow in zip(got.rows, want.rows, strict=True):
        for g, w in zip(grow, wrow, strict=True):
            assert type(g) is type(w)
            assert p is None or 0 <= g < p


def assert_oracle_basis(got, m):
    """`got`, m's `rref`, is `oracle_rref(m)` without its zero rows: no row of it is zero, its
    `nrows` and `pivots` are the oracle's rank and pivots, its rows the oracle's first `rank`
    rows (entry types included, F_p residues in [0, p)), and it is its own `rref`."""
    want, rk, piv = oracle_rref(m)
    assert all(any(r) for r in got.rows)
    assert (got.nrows, linalg.pivots(got)) == (rk, piv)
    assert_same_matrix(got, Matrix(m.field, want.rows[:rk], m.ncols))
    assert rref(got) == got


def test_rref_identity():
    for field in KERNEL_FIELDS:
        m = ident(field, 2)
        red = rref(m)
        assert red == m and linalg.pivots(red) == (0, 1)
        assert_oracle_basis(red, m)


def test_rref_zero():
    """An all-zero or 0 x n matrix has the 0-row basis, of the same width."""
    for field in KERNEL_FIELDS:
        for m in (matrix(field, [[0, 0, 0]] * 3), _zeros(field, 0, 3)):
            red = rref(m)
            assert (red.rows, red.nrows, red.ncols, linalg.pivots(red)) == ((), 0, 3, ())
            assert_oracle_basis(red, m)


def test_rref_dependent_rows():
    for field in KERNEL_FIELDS:
        m = matrix(field, [[1, 2], [2, 4]])
        red = rref(m)
        assert red.rows == ((field.one, field.coerce(2)),) and linalg.pivots(red) == (0,)
        assert_oracle_basis(red, m)


def test_rref_mod_p():
    # 2x = 1 has solution x = 1/2 in F_p, p odd; over F_2 the row is (0, 1)
    for field in (F for F in KERNEL_FIELDS if F.p):
        m = matrix(field, [[2, 1]])
        red = rref(m)
        assert red.rows == (((1, pow(2, -1, field.p)) if field.p > 2 else (0, 1)),)
        assert_oracle_basis(red, m)


def test_sum_basis_vectors():
    a = matrix(QQ, [[1, 0]])
    b = matrix(QQ, [[0, 1]])
    assert row_space_sum(a, b) == ident(QQ, 2)


def test_sum_idempotent():
    v = matrix(QQ, [[1, 2, 3], [0, 1, 1]])
    assert row_space_sum(v, v) == rref(v)


def test_sum_two_lines():
    s = row_space_sum(matrix(QQ, [[1, 1, 0]]), matrix(QQ, [[0, 1, 1]]))
    assert s.nrows == 2
    assert inside(s, (Fraction(1), Fraction(0), Fraction(-1)))


def test_intersect_self():
    v = rref(matrix(QQ, [[1, 2, 3], [0, 1, 1]]))
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
    assert inside(line, (Fraction(1), Fraction(-1), Fraction(0)))


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


@given(mat_pairs())
@settings(max_examples=150, deadline=None)
def test_grassmann_identity(pair):
    a, b = pair
    s = row_space_sum(a, b)
    i = zassenhaus_intersect(a, b)
    assert s.nrows + i.nrows == rref(a).nrows + rref(b).nrows


@given(mat_pairs())
@settings(max_examples=100, deadline=None)
def test_intersect_matches_oracle(pair):
    a, b = pair
    assert zassenhaus_intersect(a, b) == oracle_intersect(a, b)


@given(mats())
@settings(max_examples=150, deadline=None)
def test_rank_nullity_and_kernel_membership(m):
    k = kernel(m)
    assert rref(m).nrows + k.nrows == m.ncols
    F = m.field
    for kr in k.rows:
        for mr in m.rows:
            acc = F.zero
            for a, b in zip(mr, kr):
                acc = F.coerce(acc + a * b)
            assert not acc


@given(mat_pairs())
@settings(max_examples=100, deadline=None)
def test_intersection_contained_in_both(pair):
    a, b = pair
    inter = zassenhaus_intersect(a, b)
    ra, rb = rref(a), rref(b)
    for row in inter.rows:
        assert inside(ra, row)
        assert inside(rb, row)


# ------------------------------------------------- kernels against the oracle

@st.composite
def scalars(draw, fld):
    if fld.p is not None:
        return draw(st.one_of(st.integers(0, min(fld.p - 1, 3)), st.integers(0, fld.p - 1)))
    num = draw(st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG)))
    den = draw(st.one_of(st.integers(1, 3), st.integers(1, BIG)))
    return Fraction(num, den)


@st.composite
def kernel_mats(draw, fields=KERNEL_FIELDS):
    """Zero, empty, tall and wide matrices with repeated and proportional
    rows, entries canonical and of any height the field allows."""
    fld = draw(st.sampled_from(fields))
    nr = draw(st.integers(0, 8))
    nc = draw(st.integers(0, 8))
    zero_prob = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rows = []
    for _ in range(nr):
        if rows and draw(st.booleans()):
            # a multiple (0, 1 or any scalar) of an earlier row
            base = draw(st.sampled_from(rows))
            k = draw(st.one_of(st.sampled_from([fld.zero, fld.one]), scalars(fld)))
            rows.append(tuple(fld.coerce(k * x) for x in base))
        else:
            rows.append(tuple(
                fld.zero if draw(st.floats(0, 1)) < zero_prob else draw(scalars(fld))
                for _ in range(nc)
            ))
    order = draw(st.permutations(range(nr)))
    return Matrix(fld, tuple(rows[i] for i in order), nc)


def _zeros(fld, nr, nc):
    return Matrix(fld, ((fld.zero,) * nc,) * nr, nc)


@given(kernel_mats())
@settings(max_examples=300, deadline=None)
@example(_zeros(QQ, 0, 0))
@example(_zeros(QQ, 0, 4))
@example(_zeros(QQ, 3, 0))
@example(_zeros(QQ, 7, 2))
@example(_zeros(GF(3), 2, 7))
@example(Matrix(GF(2**61 - 1), ((2**61 - 2, 2, 5), (5, 1, 11)), 3))
@example(Matrix(QQ, ((Fraction(BIG, 3), Fraction(-1, BIG)), (Fraction(-2), Fraction(0))), 2))
def test_rref_matches_scalar_oracle(m):
    assert_oracle_basis(rref(m), m)


@given(kernel_mats(), st.integers(0, 8))
@settings(max_examples=300, deadline=None)
def test_echelon_extend_keeps_an_echelon_basis_of_the_span(m, cut):
    """The basis rows (the first `cut` input rows' echelon basis, extended in place by the rest) lead at
    their keys, lead 1 over F_p and are primitive with a positive lead over Q, and span what the
    input rows span: as many rows as its rank, with the same RREF."""
    F, ints = m.field, m.ints
    start = linalg.echelon_extend(F, {}, ints[:cut])
    basis = linalg.echelon_extend(F, start, ints[cut:])
    assert basis is start and len(basis) == rref(m).nrows
    for c, row in basis.items():
        assert len(row) == m.ncols and not any(row[:c]) and type(row) is tuple
        assert row[c] == 1 if F.p else row[c] > 0 and gcd(*row) == 1
    assert rref(linalg.from_ints(F, tuple(basis.values()), m.ncols)) == rref(m)


@given(kernel_mats(fields=[QQ]))
@settings(max_examples=80, deadline=None)
def test_rref_over_q_matches_sympy(m):
    red = rref(m)
    flat = [sympy.Rational(x.numerator, x.denominator) for row in m.rows for x in row]
    want, want_piv = sympy.Matrix(m.nrows, m.ncols, flat).rref()
    got = [sympy.Rational(x.numerator, x.denominator) for row in red.rows for x in row]
    assert got == list(want)[: len(want_piv) * m.ncols] and red.nrows == len(want_piv)
    assert linalg.pivots(red) == tuple(want_piv) and all(any(r) for r in red.rows)


@given(kernel_mats())
@settings(max_examples=150, deadline=None)
def test_rref_idempotent(m):
    red = rref(m)
    assert rref(red) == red
    assert all(any(r) for r in red.rows)
    piv = linalg.pivots(red)
    assert len(piv) == red.nrows and list(piv) == sorted(set(piv))


# ------------------------------------- the shapes the library feeds `rref`


def _entry(rng, fld, zero_prob):
    """A canonical scalar: zero with probability zero_prob, else nonzero, small or any residue."""
    if rng.random() < zero_prob:
        return fld.zero
    if fld.p is not None:
        return rng.randrange(1, min(fld.p, 4)) if rng.random() < 0.5 else rng.randrange(1, fld.p)
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 3))


def _random_rows(rng, fld, nr, nc, zero_prob=0.0):
    return [tuple(_entry(rng, fld, zero_prob) for _ in range(nc)) for _ in range(nr)]


def _ladder(rng, fld):
    """x.R_kB over y^(k+1).B, as `spaces._shift_up_once` stacks them: R_kB's RREF basis
    (each monomial multiple of B's rows, reduced by the oracle) with a 0 appended, over
    B's rows shifted k + 1 columns right."""
    m, k = rng.randint(0, 24), rng.randint(0, 20)
    B = _random_rows(rng, fld, rng.randint(1, min(m + 1, 8)), m + 1, rng.choice([0.0, 0.5]))
    multiples = [(fld.zero,) * a + b + (fld.zero,) * (k - a) for b in B for a in range(k + 1)]
    red, rk, _ = oracle_rref(Matrix(fld, tuple(multiples), m + k + 1))
    rows = [r + (fld.zero,) for r in red.rows[:rk]] + [(fld.zero,) * (k + 1) + b for b in B]
    return rows, m + k + 2


def _residues(rng, fld):
    """z[:j] over z[1:] for the rows z of an echelon block: the two Hankel windows of width j,
    stacked as the down-rungs' residue rows once were."""
    j = rng.randint(1, 59)
    Z = _random_rows(rng, fld, rng.randint(1, min(j + 1, 20)), j + 1, rng.choice([0.0, 0.5]))
    red, rk, _ = oracle_rref(Matrix(fld, tuple(Z), j + 1))
    Z = red.rows[:rk]
    return [z[:j] for z in Z] + [z[1:] for z in Z], j


def _hankel(rng, fld):
    """The degree-i catalecticant of W, as `linalg.hankel` stacks it: every window w[r : r + i + 1]
    of the rows w of W, offset by offset."""
    j = rng.randint(0, 45)
    i = rng.randint(0, j)
    W = _random_rows(rng, fld, rng.randint(1, max(1, min(j + 1, 40 // (j - i + 1)))), j + 1)
    return [w[r : r + i + 1] for r in range(j - i + 1) for w in W], i + 1


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=lambda F: F.name)
def test_hankel_stacks_every_window_offset_major(field):
    rows = ((1, 2, 3, 4), (5, 6, 7, 8))
    m = hankel(field, rows, 2)
    assert (m.ints, m.nrows, m.ncols) == (((1, 2), (5, 6), (2, 3), (6, 7), (3, 4), (7, 8)), 6, 2)
    assert [(e.nrows, e.ncols) for e in (hankel(field, rows, 5), hankel(field, (), 3))] == [(0, 5), (0, 3)]
    assert hankel(field, rows, 0).ints == ((),) * 10  # width 0: every row has n + 1 empty windows


def _unit_rows(rng, fld):
    """Monomials: rows with one nonzero entry, some columns repeated, so pivot rows have
    empty support; sometimes a few dense rows among them."""
    nc = rng.randint(1, 60)
    rows = []
    for _ in range(rng.randint(1, 40)):
        row = [fld.zero] * nc
        row[rng.randrange(nc)] = _entry(rng, fld, 0.0)
        rows.append(tuple(row))
    if rng.random() < 0.5:
        rows += _random_rows(rng, fld, rng.randint(1, 3), nc, 0.5)
    rng.shuffle(rows)
    return rows, nc


@st.composite
def library_shapes(draw):
    """A matrix of one of the shapes the library eliminates, up to about 40 x 60."""
    fld = draw(st.sampled_from(KERNEL_FIELDS))
    shape = draw(st.sampled_from([_ladder, _residues, _hankel, _unit_rows]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows, nc = shape(rng, fld)
    if draw(st.booleans()):  # `rref_reversed` eliminates with the columns reversed
        rows = [r[::-1] for r in rows]
    return Matrix(fld, tuple(rows), nc)


@given(library_shapes())
@settings(max_examples=250, deadline=None)
def test_rref_on_library_shapes_matches_scalar_oracle(m):
    assert_oracle_basis(rref(m), m)


def _primitive_rows(m):
    out = []
    for row in m.rows:
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * den // x.denominator for x in row]
        out.append([x // (gcd(*ints) or 1) for x in ints])
    return out


@pytest.mark.parametrize("seed", range(6))
def test_q_kernel_rows_stay_primitive_and_bounded(seed):
    """Every row the Q kernel holds, at every line it runs, is primitive and
    within the Hadamard bound prod_i max(1, |row_i|) of the input rows made
    primitive integer rows: a reduced row is proportional to a vector of
    minors of that matrix, and its primitive part divides that vector."""
    rng = random.Random(seed)
    nr, nc = rng.randint(5, 9), rng.randint(5, 9)
    rows = [
        tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(nc))
        for _ in range(nr)
    ]
    rows.append(tuple(2 * x - y for x, y in zip(rows[0], rows[1])))
    m = Matrix(QQ, tuple(rows), nc)
    bound_sq = prod(max(1, sum(x * x for x in r)) for r in _primitive_rows(m))
    held = []

    def trace_lines(frame, event, arg):
        if event == "line":
            held.extend(map(tuple, frame.f_locals.get("rows", ())))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code is linalg._rref_q.__code__ else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        got = rref(m)
    finally:
        sys.settrace(previous)
    assert_oracle_basis(got, m)
    assert len(held) > nr
    for r in held:
        assert all(x * x <= bound_sq for x in r)
        assert gcd(*r) in (0, 1)


# ------------------------------------------- the kernel in one elimination


def _kernel_examples(test):
    for ex in (
        _zeros(QQ, 0, 0), _zeros(QQ, 0, 4), _zeros(QQ, 3, 0), _zeros(GF(2), 7, 2),
        _zeros(GF(3), 2, 7), Matrix(GF(2**61 - 1), ((2**61 - 2, 2, 5), (5, 1, 11)), 3),
        Matrix(QQ, ((Fraction(BIG, 3), Fraction(-1, BIG)), (Fraction(-2), Fraction(0))), 2),
    ):
        test = example(ex)(test)
    return test


@given(kernel_mats())
@settings(max_examples=200, deadline=None)
@_kernel_examples
def test_kernel_matches_two_elimination_oracle(m):
    assert_same_matrix(kernel(m), oracle_kernel(m))


@given(kernel_mats())
@settings(max_examples=150, deadline=None)
@_kernel_examples
def test_kernel_matches_sympy_nullspace(m):
    from sympy.polys.matrices import DomainMatrix

    F = m.field
    K = sympy.QQ if F.p is None else sympy.GF(F.p)
    if m.ncols == 0:
        assert kernel(m).nrows == 0
        return

    def scalar(x):
        r = K.to_sympy(x)
        return F.coerce(Fraction(int(r.p), int(r.q))) if F.p is None else int(r) % F.p

    dm = DomainMatrix([[K.convert(int(x) if F.p else sympy.Rational(x.numerator, x.denominator))
                        for x in row] for row in m.rows], (m.nrows, m.ncols), K)
    null = [tuple(scalar(x) for x in row) for row in dm.nullspace().to_list()]
    assert_same_matrix(kernel(m), rref(Matrix(F, tuple(null), m.ncols)))


def test_kernel_is_one_elimination(monkeypatch):
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m) or real(m))
    for F in KERNEL_FIELDS:
        for m in (matrix(F, [[1, 2, 3, 4], [2, 4, 6, 9]]), _zeros(F, 0, 3), ident(F, 3)):
            calls.clear()
            kernel(m)
            assert len(calls) == 1


def test_contains_vector_runs_no_elimination(monkeypatch):
    calls = []
    real = linalg.rref
    basis = {F: rref(matrix(F, [[1, 2, 3, 4], [2, 4, 6, 9]])) for F in FIELDS}
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m) or real(m))
    for F in FIELDS:
        dual = integral_dual(basis[F])
        for vec, want in (([3, 6, 9, 13], True), ([0, 0, 1, 0], False), ([0, 0, 0, 0], True)):
            assert contains_vector(dual, matrix(F, [vec]).rows[0], F) is want
    assert calls == []

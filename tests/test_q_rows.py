"""Q bases held as primitive integer rows, checked against Fraction Gauss-Jordan.

Over Q a `Matrix` that an elimination returns holds only its integer rows
(`Matrix.ints`) and builds its Fraction `rows` when they are first read.  The
spaces below are compared with bases that `oracles.oracle_rref` computes one
Fraction at a time, on random, sparse and high-height inputs, and the lazy
matrices are compared with eagerly built ones."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from binforms.fields import QQ
from binforms.ideals import GradedIdeal, ancestor_ideal, generator_degrees, hilbert_function
from binforms.linalg import Matrix, kernel, rref
from binforms.related import related_classes
from binforms.spaces import FormSpace, gcd_of_space, random_space, shift, space_sum, span, tau
from binforms.waring import mu, perp, random_dual, tau_delta
from oracles import oracle_rref

HIGH = 10**30


def _basis(rows, ncols: int) -> Matrix:
    """The canonical basis of the row space, by the scalar oracle alone."""
    red, rank, _ = oracle_rref(Matrix(QQ, tuple(map(tuple, rows)), ncols))
    return Matrix(QQ, red.rows[:rank], ncols)


def _kernel(m: Matrix) -> Matrix:
    red, rank, pivots = oracle_rref(m)
    vecs = []
    for f in (c for c in range(m.ncols) if c not in pivots):
        v = [Fraction(0)] * m.ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -red.rows[i][f]
        vecs.append(v)
    return _basis(vecs, m.ncols)


def _shift(V: Matrix, s: int) -> Matrix:
    """R_sV (j + s >= 0) from V's basis: all degree-s monomial multiples for s > 0; for s < 0, the u
    whose multiples x^a y^(|s|-a) u all reduce to 0 mod V, a kernel of residue columns."""
    j = V.ncols - 1
    if s >= 0:
        return _basis([(0,) * a + r + (0,) * (s - a) for r in V.rows for a in range(s + 1)], j + s + 1)
    n, m = j + s + 1, -s
    by_pivot = {next(c for c, x in enumerate(r) if x): r for r in V.rows}

    def residue(k):  # of the monomial e_k mod V
        r = by_pivot.get(k)
        return [Fraction(int(i == k)) if r is None else -r[i] * (i != k) for i in range(j + 1)]

    # column t of the map u -> (residues of the m + 1 shifts of u): u's entry t lands on e_(t+a)
    cols = [sum((residue(t + a) for a in range(m + 1)), []) for t in range(n)]
    return _kernel(Matrix(QQ, tuple(map(tuple, zip(*cols))), n))


def _assert_same(got: Matrix, want: Matrix):
    """`got` is `want`: as a lazy matrix holding only canonical integer rows, and after its rows
    are built, with the eager matrix's equality, hash and repr."""
    assert got.ints == want.ints
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


SCALARS = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-HIGH, HIGH), st.integers(1, HIGH)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
)


@st.composite
def q_rows(draw, n: int, min_size: int = 1, max_size: int = 4):
    zero_prob = draw(st.sampled_from([0.0, 0.5, 0.8]))  # random, then sparse inputs
    k = draw(st.integers(min_size, max_size))
    return [
        tuple(Fraction(0) if draw(st.floats(0, 1)) < zero_prob else draw(SCALARS) for _ in range(n))
        for _ in range(k)
    ]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_q_spaces_match_the_fraction_oracle(data):
    j = data.draw(st.integers(1, 5))
    rows = data.draw(q_rows(j + 1))
    V = span(QQ, j, rows)
    want = _basis(rows, j + 1)
    assert "rows" not in V.mat.__dict__  # built lazily
    _assert_same(V.mat, want)
    for s in (1, 2, 3, -1, -2, -3):
        if j + s >= 0:
            _assert_same(shift(V, s).mat, _shift(want, s))
    other = data.draw(q_rows(j + 1))
    _assert_same(space_sum(V, span(QQ, j, other)).mat, _basis(rows + other, j + 1))
    m = Matrix(QQ, tuple(data.draw(q_rows(j + 1, 0, 5))), j + 1)
    _assert_same(kernel(m), _kernel(m))
    I = ancestor_ideal(span(QQ, j, rows))
    for i, comp in enumerate(I.components, start=I.window_lo):
        _assert_same(comp.mat, _shift(want, i - j))


def test_matrix_fields_are_unchanged():
    fields = dataclasses.fields(Matrix)
    assert [f.name for f in fields] == ["field", "rows", "ncols"]
    assert all(f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING for f in fields)


def test_lazy_rows_are_the_eager_ones():
    m = Matrix(QQ, ((Fraction(HIGH, 3), Fraction(-1, HIGH), Fraction(0)), (Fraction(-2), Fraction(0), Fraction(5, 7))), 3)
    lazy = rref(m)
    assert lazy.nrows == 2 and set(lazy.__dict__) == {"field", "_ints", "ncols", "nrows"}  # nrows builds no rows
    _assert_same(lazy, Matrix(QQ, _basis(m.rows, 3).rows, 3))


@pytest.mark.parametrize("seed", range(4))
def test_up_ladder_builds_no_fraction_rows(seed):
    V = random_space(3, 8, QQ, seed)
    rungs = [shift(V, k) for k in range(1, 8)]
    assert [R.dim for R in rungs] and all(tau(R) >= 0 for R in rungs)
    built = [R for R in rungs if "_write" not in vars(R.mat)]  # not a block, whose rows wait for a read
    assert built, "no rung was built by elimination"
    assert all("rows" not in R.mat.__dict__ for R in built)


def _matrices(*roots) -> list[Matrix]:
    """Every Matrix reachable from these spaces and ideals: their bases, rungs and residue rows."""
    found, stack, seen = [], list(roots), set()
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, Matrix):
            found.append(x)
        elif isinstance(x, FormSpace):
            stack += vars(x).values()
        elif isinstance(x, GradedIdeal):
            stack += x.components
        elif isinstance(x, (list, tuple)):
            stack += x
    return found


def test_apolarity_and_gcd_clear_no_denominators(monkeypatch):
    # once the inputs are built, the catalecticants and gcd(V) read `Matrix.ints`; from int rows,
    # span, tau, the ancestor ideal and the related classes with their Betti and Hilbert data build
    # `ints` alone: no row of Fractions is cleared back to integers, in `linalg`, `forms` or `spaces`,
    # and no matrix they reach, blocks included, builds its Fraction rows
    import binforms.forms as forms
    import binforms.linalg as linalg
    import binforms.spaces as spaces

    inputs = [(random_dual(6, 24, QQ, s), random_space(5, 12, QQ, s)) for s in range(4)]
    rng = random.Random(49)
    raw = [(j, [[rng.randint(-9, 9) for _ in range(j + 1)] for _ in range(rng.randint(1, j + 1))])
           for j in range(1, 11) for _ in range(3)]
    calls, real = [], linalg._integer_row
    for mod in (linalg, forms, spaces):
        monkeypatch.setattr(mod, "_integer_row", lambda row: calls.append(row) or real(row))
    assert Matrix(QQ, ((Fraction(1, 2), Fraction(1)),), 2).ints == ((1, 2),) and len(calls) == 1  # the spy sees
    calls.clear()
    for W, V in inputs:
        tau_delta(W), mu(W), perp(V), gcd_of_space(V)
    reached = []
    for j, rows in raw:
        V = span(QQ, j, rows)
        tau(V)
        reached += [V, ancestor_ideal(V), related_classes(V)]
        for I in reached[-1]:
            generator_degrees(I), hilbert_function(I)
    assert calls == []
    mats = _matrices(*reached)
    assert len(mats) > 100 and not [m for m in mats if "rows" in vars(m)]

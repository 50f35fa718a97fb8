"""The one-step rungs of `spaces`: x.V + y.V going up, going down the lazy kernel of an echelon
basis of (R_{-1}V)^perp, V^perp's rows less their first entry extended by the top space's cod windows,
checked against plain eliminations, for their sizes and for the garbage they leave; and dim R_1W read
off the rung already built (dim R_1W = 2 dim W - dim R_{-1}W)."""

import fractions
import gc
import inspect
import random
import sys
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from binforms import fields, linalg, spaces
from binforms.fields import GF, QQ
from binforms.forms import form, mul_form
from binforms.ideals import _stable_top, ancestor_ideal, generator_degrees, relation_degrees
from binforms.related import related_classes
from binforms.spaces import (
    FormSpace,
    kernel_space,
    principal_space,
    random_space,
    shift,
    space_sum,
    span,
    tau,
)

from oracles import oracle_down_dim, oracle_kernel, oracle_shift_down_once, oracle_shift_up_once

F101 = GF(101)
LADDER_FIELDS = [F101, GF(7), QQ]


def _random_form(F, degree, rng):
    coeffs = [rng.randint(-5, 5) for _ in range(degree + 1)]
    coeffs[rng.randrange(degree + 1)] = rng.randint(1, 5)  # nonzero over F_7 too
    return form(F, degree, coeffs)


@st.composite
def ladder_spaces(draw):
    """A random space (every d from 1 to j+1), a random space times a planted
    common factor, the sum of two principal blocks, or R_1U for a random U of
    dim <= (j+1)/4 over F_101 or Q (dim <= cod, and R_{-1} contains U); j <= 16."""
    F = draw(st.sampled_from(LADDER_FIELDS))
    j = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["random", "factor", "blocks", "up"]))
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    if kind == "random":
        return random_space(draw(st.integers(1, j + 1)), j, F, seed)
    if kind == "up":
        F, j = draw(st.sampled_from([F101, QQ])), max(j, 3)
        up = shift(random_space(draw(st.integers(1, (j + 1) // 4)), j - 1, F, seed), 1)
        return FormSpace(F, j, up.mat)  # its memos dropped
    if kind == "factor":
        e = draw(st.integers(1, j))
        W = random_space(draw(st.integers(1, j - e + 1)), j - e, F, seed)
        h = _random_form(F, e, rng)
        return span(F, j, [mul_form(h, b) for b in W.basis_forms()])
    a, b = draw(st.integers(0, j)), draw(st.integers(0, j))
    return space_sum(principal_space(_random_form(F, a, rng), j),
                     principal_space(_random_form(F, b, rng), j))


def _assert_same(got: FormSpace, want):
    assert got.mat == want
    kind = type(got.field.one)
    assert all(type(x) is kind for r in got.mat.rows for x in r)


@given(ladder_spaces())
@settings(max_examples=120, deadline=None)
def test_whole_ladder_matches_plain_elimination(V):
    # up to one step past the stable top (cod falls by >= 1 per unstable step)
    m = V.mat
    for k in range(1, V.cod + 2):
        m = oracle_shift_up_once(m)
        _assert_same(shift(V, k), m)
    # down to zero, or to degree 0
    m = V.mat
    for s in range(1, V.degree + 1):
        m = oracle_shift_down_once(m)
        _assert_same(shift(V, -s), m)
        if not m.rows:
            break


def _bare(V):
    return FormSpace(V.field, V.degree, V.mat)


@given(ladder_spaces())
@settings(max_examples=120, deadline=None)
def test_tau_is_read_right_off_whichever_rung_is_built(V):
    want = oracle_shift_up_once(V.mat).nrows - V.dim
    # nothing built, the principal memo, the rung down, the rung up
    for build in (None, lambda W: W._principal, lambda W: shift(W, -1), lambda W: shift(W, 1)):
        W = _bare(V)
        if build:
            build(W)
        assert tau(W) == want


@pytest.mark.parametrize("field", LADDER_FIELDS, ids=lambda F: F.name)
def test_tau_of_zero_and_degree_zero_spaces(field):
    R0 = principal_space(form(field, 0, [1]), 0)  # a block, which knows its f
    assert tau(R0) == tau(_bare(R0)) == 1
    Z, Z_down = spaces.zero_space(field, 3), spaces.zero_space(field, 3)
    Z_down._down  # built, so tau reads it: a shift past a zero rung builds none
    assert tau(Z) == tau(Z_down) == 0


@pytest.mark.parametrize("d,j", [(2, 10), (6, 10), (9, 10)])  # d <= cod, then d > cod
def test_betti_counts_and_down_walk_build_no_up_rung(monkeypatch, d, j):
    # The counts after the walk run no elimination and write no block's rows: the one
    # up-rung they may build is a block's R_1, f.R_{s+1}, built from (f, s + 1) in O(1).
    A = ancestor_ideal(random_space(d, j, F101, 0))
    built, work = [], []
    real = spaces._shift_up_once
    monkeypatch.setattr(spaces, "_shift_up_once", lambda V: built.append(V) or real(V))
    monkeypatch.setattr(linalg, "rref", lambda m: work.append("rref"))
    monkeypatch.setattr(spaces, "_block_rows", lambda f, s: work.append("block rows") or iter(()))
    generator_degrees(A)
    relation_degrees(A)
    assert work == []
    assert all("_principal" in W.__dict__ and W._principal is not None for W in built)


def _fresh(V):
    """V without its memos, its principal memo computed (no elimination)."""
    W = FormSpace(V.field, V.degree, V.mat)
    assert W._principal is None
    return W


@pytest.fixture
def eliminations(monkeypatch):
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m) or real(m))
    return calls


@pytest.fixture
def echelons(monkeypatch):
    """The rows handed to each `linalg.echelon_extend` call, after the size of the basis they extend."""
    calls = []
    real = linalg.echelon_extend

    def spy(field, basis, rows):
        rows = tuple(rows)
        calls.append((len(basis), rows))
        return real(field, basis, rows)

    monkeypatch.setattr(linalg, "echelon_extend", spy)
    return calls


def _one_down_step(echelons, V):
    """The cost of V's down step, V a written space: its `integral_dual` rows start an empty basis, then
    one step hands the kernel its |G| = cod V windows, ints over Q as over F_p."""
    (start, top_rows), (_, windows) = echelons
    assert (start, len(top_rows), len(windows)) == (0, V.cod, V.cod)
    assert all(type(x) is int for r in windows for x in r)


@pytest.mark.parametrize("field", [F101, QQ], ids=lambda F: F.name)
def test_pencil_up_rung_eliminates_twice_dim_rows(eliminations, echelons, field):
    # every rung below the last stacks its 2 dim rows x.v and y.v, after one down step (cod rows
    # handed to the echelon kernel, no `rref`) when 2 dim >= j + 2; the last one fills R_{j+1}, and
    # its down step shows it: |E| of R_{-1} is 2 cod
    V = random_space(2, 12, field, 3)
    W, rungs = V, []
    while W._principal is None:
        eliminations.clear()
        echelons.clear()
        up = W._up
        rungs.append((W, [m.nrows for m in eliminations], [len(rows) for _, rows in echelons]))
        W = up
    *below, (last, top, reduced) = rungs
    pinned = [[U.cod, U.cod] if 2 * U.dim >= U.degree + 2 else [] for U, _, _ in below]
    assert len(below) >= 2 and [sizes for _, sizes, _ in below] == [[2 * U.dim] for U, _, _ in below]
    assert [rows for _, _, rows in below] == pinned
    assert W.is_full and top == [] and reduced == [last.cod, last.cod] == [1, 1]
    assert len(last._down._echelon[0]) == 2 * last.cod


@pytest.mark.parametrize("field", [F101, QQ], ids=lambda F: F.name)
@pytest.mark.parametrize("d,j", [(5, 8), (9, 12), (30, 40)])
def test_full_up_rung_runs_one_rank_of_2_cod_rows(eliminations, echelons, field, d, j):
    # the rank is |E| of R_{-1}V, one down step, with no `rref`
    V = _fresh(random_space(d, j, field, 4))
    eliminations.clear()
    up = V._up
    assert eliminations == [] and len(V._down._echelon[0]) == 2 * V.cod
    _one_down_step(echelons, V)
    assert up.is_full and up._principal is not None  # later rungs are closed form
    assert up.mat == oracle_shift_up_once(V.mat)


@pytest.mark.parametrize("field", [F101, QQ], ids=lambda F: F.name)
@pytest.mark.parametrize("d,j", [(5, 8), (9, 12)])
def test_full_up_rung_read_off_its_built_down_rung_runs_no_elimination(eliminations, field, d, j):
    V = _fresh(random_space(d, j, field, 5))
    V._down
    eliminations.clear()
    assert V._up.is_full and eliminations == []


@pytest.mark.parametrize("field", [F101, QQ], ids=lambda F: F.name)
@pytest.mark.parametrize("d,j", [(3, 10), (6, 10), (2, 40)])
def test_zero_down_rung_read_off_its_built_up_rung_runs_no_elimination(eliminations, field, d, j):
    V = _fresh(random_space(d, j, field, 6))
    assert V._up.dim == 2 * V.dim
    eliminations.clear()
    assert V._down.is_zero and eliminations == []
    assert oracle_shift_down_once(V.mat).nrows == 0


def _near_miss(F, a, b, j):
    """x^j .. x^(j-a+1)y^(a-1) and x^(b-1)y^(j-b+1) .. y^j: both end columns
    reached, and R_1 misses j - a - b monomials."""
    return span(F, j, [[int(i == c) for i in range(j + 1)] for c in [*range(a), *range(j - b + 1, j + 1)]])


@pytest.mark.parametrize("field", [GF(2), GF(3), F101, QQ], ids=lambda F: F.name)
def test_near_miss_is_no_full_rung_either_way(field):
    # span{x^5, x^4y, xy^4, y^5}: 2 dim >= j + 2 and both end columns pass,
    # but the rank of the 2 cod = 4 rows is 3, and dim R_1 = 6 of 7
    for build_down_first in (False, True):
        V = _near_miss(field, 2, 2, 5)
        if build_down_first:
            assert V._down.dim == 2
        assert V._up.dim == 6 and not V._up.is_full
        assert V._up.mat == oracle_shift_up_once(V.mat)
        assert V._down.mat == oracle_shift_down_once(V.mat)


@pytest.mark.parametrize("field", [F101, QQ], ids=lambda F: F.name)
@pytest.mark.parametrize("d,j", [(2, 40), (5, 16), (8, 15), (38, 40), (12, 16), (9, 15)])  # dim <= cod, then dim > cod
def test_down_rung_solves_on_free_columns(eliminations, echelons, field, d, j):
    # V's `integral_dual` rows lead at its free columns (last, reversed): they start the echelon
    # basis as they are, and the step reduces only the cod V windows; reading the rows runs one kernel
    V = _fresh(random_space(d, j, field, 1))
    eliminations.clear()
    down = V._down
    assert eliminations == []
    _one_down_step(echelons, V)
    assert [kept for kept, _ in echelons] == [0, V.cod - (V.mat.ints[0][0] == 0)]  # a row led by e_0 goes
    assert down.mat == oracle_shift_down_once(V.mat)
    assert [(m.nrows, m.ncols) for m in eliminations] == [(down.cod, j)]


def test_ladders_leave_nothing_for_the_cyclic_collector():
    # a rung records rows (a down-rung the rows it is the kernel of, an ideal's up-rung the
    # matrix below it), never a space: base -> _up -> rung -> base would be a reference cycle
    gc.collect()
    gc.disable()
    try:
        for field, cases in ((F101, [(2, 12), (5, 12), (9, 12)]), (QQ, [(2, 7), (4, 8)])):
            for seed, (d, j) in enumerate(cases):
                V = random_space(d, j, field, seed)
                ancestor_ideal(V)
                related_classes(V)
        del V
        assert gc.collect() == 0
    finally:
        gc.enable()


ARITHMETIC = {"add", "sub", "mul", "neg", "inv", "coerce"}


@pytest.mark.parametrize("field", [F101, QQ], ids=lambda F: F.name)
@pytest.mark.parametrize("d,j", [(2, 12), (5, 12), (9, 12)])
def test_rungs_do_no_field_arithmetic_in_spaces(field, d, j):
    # every scalar operation of a rung built by elimination runs in linalg
    made_here = []

    def watch(frame, event, arg):
        if event != "call" or frame.f_back is None:
            return
        callee = frame.f_code
        if frame.f_back.f_code.co_filename != spaces.__file__:
            return
        if callee.co_filename == fractions.__file__ or (
            callee.co_filename == fields.__file__ and callee.co_name in ARITHMETIC
        ):
            made_here.append((frame.f_back.f_code.co_name, callee.co_name))

    up = shift(random_space(2, 12, field, 2), 1)  # built by elimination
    down = _fresh(random_space(d, j, field, 2))
    assert up._principal is None
    sys.setprofile(watch)
    try:
        spaces._shift_up_once(up)
        spaces._shift_down_once(down)
    finally:
        sys.setprofile(None)
    assert made_here == []
    for builder in (spaces._shift_up_once, spaces._shift_down_once):
        source = inspect.getsource(builder)
        assert "%" not in source and "Fraction" not in source


def test_q_down_rung_runs_the_integer_kernel(monkeypatch, echelons):
    V = _fresh(random_space(20, 40, QQ, 0))
    assert V.dim <= V.cod
    seen = []
    real = linalg._rref_q
    monkeypatch.setattr(linalg, "_rref_q", lambda rows, n: seen.append(rows) or real(rows, n))
    down = V._down
    # the windows reach the echelon kernel as integers, not Fractions, and no RREF runs
    assert seen == []
    _one_down_step(echelons, V)
    # reading the rows runs one integer kernel of the echelon basis
    down.mat.ints
    assert len(seen) == 1 and len(seen[0]) == down.cod
    assert all(type(x) is int for row in seen[0] for x in row)
    assert down.mat == oracle_shift_down_once(V.mat)


PINNED_FIELDS = [GF(2), GF(3), F101, QQ]


@st.composite
def pinned_spaces(draw):
    """Random spaces, spans of monomials, spans of sparse monomial-and-binomial
    rows, spaces with a planted common factor, and near misses (the first a and
    last b monomials, a + b in {j - 1, j}: R_1 one short of full, or full); j <= 12."""
    F = draw(st.sampled_from(PINNED_FIELDS))
    j = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "monomial", "sparse", "factor", "near-miss"]))
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    if kind == "random":
        return random_space(draw(st.integers(1, j + 1)), j, F, seed)
    if kind in ("monomial", "sparse"):
        cols = draw(st.lists(st.integers(0, j), min_size=1, max_size=j + 1, unique=True))
        rows = [[int(i == c) for i in range(j + 1)] for c in cols]
        for row in rows if kind == "sparse" else ():
            d = rng.randint(0, j)
            row[d] = row[d] or rng.choice([0, 1, -1])
        return span(F, j, rows)
    if kind == "factor":
        e = draw(st.integers(1, j))
        W = random_space(draw(st.integers(1, j - e + 1)), j - e, F, seed)
        h = _random_form(F, e, rng)
        return span(F, j, [mul_form(h, b) for b in W.basis_forms()])
    a = draw(st.integers(1, max(1, j - 1)))
    b = max(1, j - a - draw(st.integers(0, 1)))
    return _near_miss(F, a, b, j)


@given(pinned_spaces(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_ladder_rungs_match_the_oracle_whichever_neighbour_is_built_first(V, down_first):
    # climb V's own ladder; at each rung build R_{-1} before R_1 (R_1 read off
    # its dimension) or after it (R_{-1} read off R_1's dimension)
    U, m = _bare(V), V.mat
    for _ in range(V.cod + 2):
        if down_first and U.degree:
            assert U._down.mat == oracle_shift_down_once(m)
        up_m = oracle_shift_up_once(m)
        _assert_same(U._up, up_m)
        if U.degree:
            _assert_same(U._down, oracle_shift_down_once(m))
            assert U._down.dim == oracle_down_dim(U, 1)
        U, m = U._up, up_m


@given(pinned_spaces(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_shared_residue_rref_pins_both_rungs_whichever_is_built_first(V, down_first):
    # R_1V's fullness is |E| of R_{-1}V's `_echelon`, the echelon basis of (R_{-1}V)^perp, and R_{-1}V
    # its kernel; building both rungs runs that down step at most once, in either order, and no RREF.
    # G is the cod V windows the step reduced, or for a rung built in closed form (V zero or a block)
    # its own `integral_dual`
    up_m, down_m = oracle_shift_up_once(V.mat), oracle_shift_down_once(V.mat)
    full = up_m.nrows == V.degree + 2
    down = _bare(V)._down
    E, G = down._echelon
    assert (len(E) == 2 * V.cod) is full and len(G) == (V.cod if "_kernel" in vars(down) else down.cod)
    dual = linalg.from_ints(V.field, tuple(r[::-1] for r in E.values()), V.degree)
    _assert_same(FormSpace(V.field, V.degree - 1, linalg.kernel(dual)), down_m)
    W, steps, rrefs = _bare(V), [], []
    real, real_rref = linalg.echelon_extend, linalg.rref
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "echelon_extend", lambda F, basis, rows: steps.append(len(basis)) or real(F, basis, rows))
        mp.setattr(linalg, "rref", lambda m: rrefs.append(m.ncols) or real_rref(m))
        for rung in ("_down", "_up") if down_first else ("_up", "_down"):
            getattr(W, rung)
    assert len(steps) <= 2 and V.degree not in rrefs  # V's start and one step; an up-rung has V.degree + 2 columns
    assert W._up.is_full is full
    _assert_same(W._up, up_m)
    _assert_same(W._down, down_m)


@pytest.mark.parametrize("field", [F101, QQ], ids=lambda F: F.name)
@pytest.mark.parametrize("d,j", [(6, 8), (9, 12), (30, 40)])  # R_1V full, R_{-1}V nonzero
def test_tau_then_down_rung_run_one_residue_elimination(eliminations, echelons, field, d, j):
    # tau's rank of R_1V is the down step, which R_{-1}V then reads: one step, no `rref`
    V = _fresh(random_space(d, j, field, 4))
    eliminations.clear()
    t = tau(V)
    down = shift(V, -1)
    assert eliminations == []
    _one_down_step(echelons, V)
    assert t == j + 2 - d and V._up.is_full and not down.is_zero
    assert down.mat == oracle_shift_down_once(V.mat)


@pytest.mark.parametrize("field", [F101, QQ], ids=lambda F: F.name)
def test_a_down_rung_reads_its_dual_and_members_with_no_row_written(field):
    # a down-rung's `_dual` is the echelon basis it is the kernel of, turned back, so its residues
    # and a membership test read those rows alone: over F_p `rows`, over Q `_ints`, stay unset
    V = random_space(10, 12, field, 0)
    R = shift(V, -1)
    rng = random.Random(0)
    want = oracle_shift_down_once(V.mat)
    combos = [[rng.randint(-3, 3) for _ in want.rows] for _ in range(3)]
    members = [form(field, 11, [sum(map(mul, a, col)) for col in zip(*want.rows)]) for a in combos]
    others = [_random_form(field, 11, rng) for _ in range(3)]
    R._down._echelon
    assert len(R._dual) == R.cod
    assert all(R.contains(f) for f in members)
    assert [R.contains(f) for f in others] == [False] * 3
    assert "rows" not in vars(R.mat) and "_ints" not in vars(R.mat)
    assert R.mat == want


WALK_FIELDS = [GF(2), GF(7), F101, QQ]


@st.composite
def walk_tops(draw):
    """A space to walk down from, j <= 12: a `span`, a `kernel_space` of independent rows (a random RREF,
    each row plus a multiple of the one before it), or a rung of an ideal's up-ladder (a lazy rung sized by
    mu, or a block), its rows unwritten; entries are residues over F_p, up to 2^64 in size over Q."""
    F = draw(st.sampled_from(WALK_FIELDS))
    j = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["span", "kernel", "up"]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    h = F.p - 1 if F.p else 2**64

    def rows(n):
        return tuple(tuple(rng.randint(0 if F.p else -h, h) for _ in range(j + 1)) for _ in range(n))

    if kind == "kernel":
        dual = list(span(F, j, rows(rng.randint(0, j + 1))).mat.ints)
        for i in range(1, len(dual)):
            k = rng.randint(-h, h)
            dual[i] = tuple((x + k * y) % F.p if F.p else x + k * y for x, y in zip(dual[i], dual[i - 1]))
        return kernel_space(F, j, tuple(dual))
    if kind == "span":
        return span(F, j, rows(rng.randint(1, j + 1)))
    V = span(F, j, rows(rng.randint(1, max(1, (j + 1) // 4))))
    return V if V.is_zero else draw(st.sampled_from(spaces._up_rungs(V, _stable_top(V))[1:]))


def _oracle_chain(m):
    """[R_{-1}V, R_{-2}V, ..] of V with basis m by repeated `oracle_shift_down_once`, to the first zero or degree 0."""
    chain = []
    while m.ncols > 1 and m.nrows:
        m = oracle_shift_down_once(m)
        chain.append(m)
    return chain


@given(walk_tops(), st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_every_echelon_down_rung_matches_repeated_oracle_steps(top, seed):
    # The whole walk runs before any rung is read, so a step that changed the rung above it (its basis
    # dict shared and extended, say) shows in that rung's dimension, membership or rows.
    rungs = spaces._rungs(top, -top.degree)[1:]
    want = _oracle_chain(top.mat)
    assert [W.dim for W in rungs] == [m.nrows for m in want]
    F, rng = top.field, random.Random(seed)
    for W, m in zip(rungs, want):
        n, perp = W.degree + 1, oracle_kernel(m).rows
        combos = [[rng.randint(-3, 3) for _ in m.rows] for _ in range(3)]
        members = [[sum(map(mul, a, col)) for col in zip(*m.rows)] if m.rows else [0] * n for a in combos]
        others = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(4)] + [v[:-1] + [v[-1] + 1] for v in members]
        for vec in members + others:  # in V iff its dot with each row of the oracle's V^perp is 0
            f = form(F, W.degree, vec)
            assert W.contains(f) is not any(F.coerce(sum(map(mul, z, f.coeffs))) for z in perp)
        assert all(W.contains(form(F, W.degree, vec)) for vec in members)
    for W, m in zip(rungs, want):
        _assert_same(W, m)


@st.composite
def shift_tops(draw):
    """A random space (every d from 0 to j + 1), a random space times a planted factor, a span of
    monomials or a principal block f.R_s, over F_2, F_7, F_101 or Q; j <= 10."""
    F = draw(st.sampled_from(WALK_FIELDS))
    j = draw(st.integers(0, 10))
    kind = draw(st.sampled_from(["random", "factor", "monomial", "principal"]))
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)

    def unit_form(e):  # a coefficient set to 1: nonzero over F_2 too
        coeffs = [rng.randint(-5, 5) for _ in range(e + 1)]
        coeffs[rng.randrange(e + 1)] = 1
        return form(F, e, coeffs)

    if kind == "random":
        return random_space(draw(st.integers(0, j + 1)), j, F, seed)
    if kind == "factor" and j:
        e = draw(st.integers(1, j))
        W = random_space(draw(st.integers(1, j - e + 1)), j - e, F, seed)
        return span(F, j, [mul_form(unit_form(e), b) for b in W.basis_forms()])
    if kind == "monomial":
        cols = draw(st.lists(st.integers(0, j), max_size=j + 1, unique=True))
        return span(F, j, [[int(i == c) for i in range(j + 1)] for c in cols])
    return principal_space(unit_form(draw(st.integers(0, j))), j)


@given(shift_tops())
@settings(max_examples=200, deadline=None)
def test_shift_is_one_walk_cut_at_its_first_zero_rung(V):
    # R_sV for s = -j..3 against stepwise oracles, the walk behind it ending right after its first zero
    # rung (a shift past it is the zero space of degree j + s), and R_1V's fullness read off R_{-1}V
    F, j = V.field, V.degree
    want, m = {0: V.mat}, V.mat
    for s in range(1, 4):
        want[s] = m = oracle_shift_up_once(m)
    m = V.mat
    for s in range(1, j + 1):
        want[-s] = m = oracle_shift_down_once(m)
        assert m.nrows == oracle_down_dim(V, s)
    for s in range(-j, 4):
        W = _bare(V)
        got = shift(W, s)
        assert (got.field, got.degree) == (F, j + s)
        _assert_same(got, want[s])
        rungs = spaces._rungs(_bare(V), s)
        zero = next((i for i, U in enumerate(rungs) if U.is_zero), abs(s))
        assert len(rungs) == min(zero, abs(s)) + 1, s
        assert [U.degree for U in rungs] == [j + (i if s > 0 else -i) for i in range(len(rungs))]
    if j and 2 * V.dim >= j + 2:
        assert spaces._fills_next(_bare(V)) is shift(_bare(V), 1).is_full is (want[1].nrows == j + 2)

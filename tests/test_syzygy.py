"""The syzygy degrees mu(V) of one order-basis pass, and the ideals they size.

By Hilbert-Burch the d - 1 syzygy degrees of a basis of V sum to j - deg gcd V,
and dim R_kV = d(k+1) - sum_i max(0, k - mu_i + 1).  `ancestor_ideal` and
`generated_ideal` read every up-rung's dimension off mu and write its rows only
when read; each down-rung is the kernel of residue rows taken from the reduced rows
of the step above, its rows also written only when read.  The oracles here are
plain eliminations (`oracle_rref`), never the library's ladders.  Their twin on the dual side,
one order-basis pass on a dual basis, gives every down-rung and annihilator dimension
(`oracle_dual_degrees`)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from binforms import linalg, spaces
from binforms.errors import PreconditionError
from binforms.fields import GF, QQ
from binforms.forms import form, monomial, mul_form
from binforms.ideals import (
    _stable_top,
    ancestor_ideal,
    generated_ideal,
    generator_degrees,
    graded_ideal,
    hilbert_function,
    relation_degrees,
)
from binforms.linalg import Matrix
from binforms.spaces import (
    FormSpace,
    gcd_of_space,
    principal_space,
    random_space,
    shift,
    span,
    syzygy_degrees,
)
from binforms.waring import DualSpace, _ann_component

from oracles import oracle_dual_degrees, oracle_rref, oracle_shift_down_once, oracle_shift_up_once

F101 = GF(101)
P = spaces._SIGMA_PRIME


def _random_form(F, degree, rng):
    coeffs = [rng.randint(-5, 5) for _ in range(degree + 1)]
    coeffs[rng.randrange(degree + 1)] = rng.choice([1, 3])  # nonzero over F_2 and F_7
    return form(F, degree, coeffs)


@st.composite
def syzygy_spaces(draw, fields=(GF(2), GF(7), F101, QQ), max_d=8, max_j=30):
    """A random space, a random space times a planted factor (a power of x among them), a span of
    monomials, or a principal block f.R_s; d <= max_d, j <= max_j, over Q d <= 5 and j <= 14 (the
    Fraction oracle's heights grow fast)."""
    F = draw(st.sampled_from(fields))
    if F == QQ:
        max_d, max_j = min(max_d, 5), min(max_j, 14)
    j = draw(st.integers(1, max_j))
    kind = draw(st.sampled_from(["random", "factor", "x-power", "monomial", "principal"]))
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    if kind == "random":
        return random_space(draw(st.integers(1, min(max_d, j + 1))), j, F, seed)
    if kind in ("factor", "x-power"):
        e = draw(st.integers(1, j))
        W = random_space(draw(st.integers(1, min(max_d, j - e + 1))), j - e, F, seed)
        h = monomial(F, e, 0) if kind == "x-power" else _random_form(F, e, rng)
        return span(F, j, [mul_form(h, b) for b in W.basis_forms()])
    if kind == "monomial":
        cols = draw(st.lists(st.integers(0, j), min_size=1, max_size=min(max_d, j + 1), unique=True))
        return span(F, j, [[int(i == c) for i in range(j + 1)] for c in cols])
    f = _random_form(F, draw(st.integers(0, j)), rng)
    return principal_space(f, j)


def _sylvester_kernel_dim(V, k):
    """dim of the kernel of R_k^d -> R_{j+k}, (a_i) -> sum a_i v_i, by one `oracle_rref` (over Q on
    V's integer basis rows, whose span is V's, so that the entries start small)."""
    F, j = V.field, V.degree
    basis = [tuple(map(F.coerce, r)) for r in V.mat.ints]
    rows = tuple((F.zero,) * a + r + (F.zero,) * (k - a) for r in basis for a in range(k + 1))
    return len(rows) - oracle_rref(Matrix(F, rows, j + k + 1))[1]


@given(syzygy_spaces())
@settings(max_examples=40, deadline=None)
def test_syzygy_degrees_give_every_up_dimension(V):
    mu, d, j = syzygy_degrees(V), V.dim, V.degree
    assert len(mu) == d - 1 and list(mu) == sorted(mu) and all(m >= 1 for m in mu)
    assert sum(mu) == j - gcd_of_space(V).degree
    for k in range(j + 4):
        assert _sylvester_kernel_dim(V, k) == sum(max(0, k - m + 1) for m in mu), k


@pytest.mark.parametrize("field", [F101, QQ], ids=lambda F: F.name)
def test_syzygy_degrees_of_a_line_are_empty_and_of_zero_refused(field):
    assert syzygy_degrees(span(field, 5, [[1, 2, 0, 0, 3, 1]])) == ()
    with pytest.raises(PreconditionError, match="zero space"):
        syzygy_degrees(span(field, 5, []))


def _planted_unbalanced_mod_p():
    """1 + P t^2, t, t^4: mu = (2, 2) over Q, but mod P the span of 1, t, t^4, with mu (1, 3)."""
    return span(QQ, 4, [[1, 0, P, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1]])


def _planted_common_root_mod_p(c=3):
    """-c + t + P t^2 and t(t - c): coprime over Q (mu = (2,)), both divisible by t - c mod P (mu (1,))."""
    return span(QQ, 2, [[-c, 1, P], [0, -c, 1]])


@pytest.mark.parametrize("V, mu", [(_planted_unbalanced_mod_p(), (2, 2)), (_planted_common_root_mod_p(), (2,))],
                         ids=["unbalanced mod p", "e_p > e"])
def test_q_takes_the_exact_pass_when_the_pass_mod_p_cannot_certify(monkeypatch, V, mu):
    passes = []
    real = spaces._order_basis_degrees
    monkeypatch.setattr(spaces, "_order_basis_degrees", lambda rows, j, p: passes.append(p) or real(rows, j, p))
    assert all(next(filter(None, r)) % P for r in V.mat.ints)  # the pass mod P runs
    assert syzygy_degrees(V) == mu
    assert passes == [P, None]
    for k in range(V.degree + 4):
        assert _sylvester_kernel_dim(V, k) == sum(max(0, k - m + 1) for m in mu)
    assert ancestor_ideal(FormSpace(QQ, V.degree, V.mat)) == _eager_window(V, -V.degree)


def test_q_keeps_a_balanced_mu_mod_p_with_no_q_gcd(monkeypatch):
    # a random Q space: balanced mod P with sum j, so e = 0 is certified and no Q gcd runs
    V = random_space(4, 12, QQ, 0)
    passes = []
    real = spaces._order_basis_degrees
    monkeypatch.setattr(spaces, "_order_basis_degrees", lambda rows, j, p: passes.append(p) or real(rows, j, p))
    monkeypatch.setattr(spaces, "gcd_rows", lambda *a: pytest.fail("a Q gcd ran"))
    assert syzygy_degrees(V) == (4, 4, 4) and passes == [P]


def _eager_window(V, lo):
    """The ideal with components R_sV, s = lo .. `_stable_top(V)`, each by one plain elimination from the
    one before; the tail is the gcd of the top component."""
    F, j, top = V.field, V.degree, _stable_top(V)
    down, up = [V.mat], [V.mat]
    for _ in range(-lo):
        down.append(oracle_shift_down_once(down[-1]))
    for _ in range(top):
        up.append(oracle_shift_up_once(up[-1]))
    mats = down[:0:-1] + up
    comps = [FormSpace(F, j + lo + i, m) for i, m in enumerate(mats)]
    return graded_ideal(F, j + lo, comps, gcd_of_space(comps[-1]))


@given(syzygy_spaces(fields=(F101, QQ), max_d=6, max_j=14))
@settings(max_examples=60, deadline=None)
def test_lazy_ideals_once_forced_equal_the_eager_window(V):
    A, G = ancestor_ideal(V), generated_ideal(V)
    H, gens, rels = hilbert_function(A), generator_degrees(A), relation_degrees(A)
    assert A == _eager_window(V, -V.degree)  # `==` reads every component's rows
    assert G == _eager_window(V, 0)
    fresh = FormSpace(V.field, V.degree, V.mat)
    eager = _eager_window(fresh, -V.degree)
    assert (hilbert_function(eager), generator_degrees(eager), relation_degrees(eager)) == (H, gens, rels)


@pytest.mark.parametrize("d", [3, 58])  # up-rungs sized by mu; R_1V full, and many down-rungs
def test_betti_counts_run_no_elimination_and_write_no_rung(monkeypatch, d):
    # the counts read dimensions only: mu sizes the up-rungs, and each down-rung is the kernel of
    # an echelon basis already reduced; no rung's rows are written but V's and R_1V's
    A = ancestor_ideal(random_space(d, 60, F101, 0))
    lazy = [W for W in A.components if W.degree not in (60, 61)]
    assert len(lazy) > 12 and all("rows" not in vars(W.mat) for W in lazy)
    work = []
    for name in ("rref", "echelon_extend", "kernel"):
        monkeypatch.setattr(linalg, name, lambda *a, name=name: work.append(name))
    for name in ("_ladder_step", "_block_rows"):
        monkeypatch.setattr(spaces, name, lambda *a, name=name: work.append(name))
    hilbert_function(A), generator_degrees(A), relation_degrees(A)
    assert work == []
    assert all("rows" not in vars(W.mat) for W in lazy)


def test_ideal_up_rungs_run_one_pass_and_no_up_elimination_past_the_first(monkeypatch):
    V = random_space(2, 40, F101, 0)
    calls, real = [], linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m.ncols) or real(m))
    A = ancestor_ideal(V)
    assert [n for n in calls if n > 41] == [42]  # R_1V only; every rung above is sized by mu
    assert syzygy_degrees(V) == (40,) and A.window_hi == 40 + _stable_top(V)
    assert [A.dim(40 + k) for k in range(42)] == [min(2 * k + 2, k + 41) for k in range(42)]


# ── the dual pass: down-rungs and (Ann W)_i off one order basis ─────────────


def _assert_dual_pass(F, z, j, dim_at):
    """`oracle_dual_degrees` of the rows z: sum delta = c(j+2), and for 0 <= i <= j the width-(i+1)
    Hankel kernel dimension sum_rho max(0, i - delta_rho + 1) equals dim_at(i)."""
    delta = oracle_dual_degrees(F, z, j)
    assert sum(delta) == len(z) * (j + 2)
    assert [dim_at(i) for i in range(j + 1)] == [sum(max(0, i - e + 1) for e in delta) for i in range(j + 1)]


@st.composite
def dual_pass_spaces(draw):
    """A `syzygy_spaces` space with j <= 10 (random, planted-factor, x-power, monomial or principal),
    a random space with 0 <= d <= j + 1, or a down-rung R_{-1} of a random space of degree j + 1."""
    kind = draw(st.sampled_from(["syzygy", "random", "down-rung"]))
    if kind == "syzygy":
        return draw(syzygy_spaces(max_j=10))
    F, j, seed = draw(st.sampled_from([GF(2), GF(7), F101, QQ])), draw(st.integers(0, 10)), draw(st.integers(0, 10**6))
    if kind == "random":
        return random_space(draw(st.integers(0, j + 1)), j, F, seed)
    return shift(random_space(draw(st.integers(0, j + 2)), j + 1, F, seed), -1)


@given(dual_pass_spaces())
@settings(max_examples=150, deadline=None)
def test_one_dual_pass_gives_every_down_rung_and_annihilator_dimension(V):
    # the colon spaces R_{i-j}V are the Hankel kernels of V's `_dual` (for a down-rung, the reduced
    # rows it is the kernel of), and the (Ann W)_i those of W's weighted rows
    F, j = V.field, V.degree
    assert len(V._dual) == V.cod
    _assert_dual_pass(F, V._dual, j, lambda i: shift(V, i - j).dim)
    if F.p is None or F.p > j:
        W = DualSpace(V)
        _assert_dual_pass(F, W._weighted, j, lambda i: _ann_component(W, i).dim)

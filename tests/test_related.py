import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binforms.errors import PreconditionError
from binforms.fields import GF, QQ
from binforms import spaces
from binforms.forms import form, monomial, mul_form
from binforms.ideals import generator_degrees, hilbert_function
from binforms.osequence import oseq
from binforms.related import (
    ChainSpec,
    apply_chain,
    berman_check,
    chain_spec,
    mono3,
    _first_inequivalent,
    normalize_chain,
    related_classes,
    shift3,
)
from binforms.spaces import FormSpace, equivalent, principal_space, random_space, shift, span, tau

from oracles import oracle_first_inequivalent, oracle_normalize_chain

F101 = GF(101)

nonzero_ints = st.integers(min_value=-4, max_value=4).filter(lambda i: i != 0)
chains = st.lists(nonzero_ints, min_size=0, max_size=5).map(tuple)
long_chains = st.lists(st.integers(min_value=-8, max_value=8).filter(lambda i: i != 0), max_size=16)


def _mono_space():
    F = QQ
    return span(F, 4, [monomial(F, 4, 0), monomial(F, 3, 1), monomial(F, 0, 4)])


@pytest.mark.parametrize("indices", [(1, 0, -2), [2.9, -1.2], ["3"], [True]],
                         ids=["zero", "float", "str", "bool"])
def test_chain_spec_rejects_zero_index(indices):
    # an index that is not an int is refused, not truncated to one
    with pytest.raises(PreconditionError, match="nonzero integers"):
        chain_spec(indices)
    with pytest.raises(PreconditionError, match="nonzero integers"):
        ChainSpec(tuple(indices))


def test_apply_chain_worked_example():
    V = _mono_space()
    W = apply_chain(V, (-1, 1))
    assert W == span(QQ, 4, [monomial(QQ, 4, 0), monomial(QQ, 3, 1)])
    assert W.dim == 2  # a proper subspace of V
    assert apply_chain(V, ()) == V
    assert apply_chain(V, (1, -1)) == V


def test_apply_chain_degree_underflow():
    V = _mono_space()
    with pytest.raises(PreconditionError):
        apply_chain(V, (-5,))
    with pytest.raises(PreconditionError):
        apply_chain(V, (-3, -2))


def test_normalize_chain_examples():
    assert normalize_chain((2, 3)).indices == (5,)
    assert normalize_chain((3, -1, 2)).indices == (4,)
    assert normalize_chain((-1, 2, -3)).indices == (-1, 2, -3)
    assert normalize_chain((2, -1, 3, -2)).indices == (4, -2)
    assert normalize_chain(()).indices == ()


@given(chains)
def test_normalize_chain_shape_and_idempotence(chain):
    norm = normalize_chain(chain)  # shape is asserted internally
    assert normalize_chain(norm) == norm
    signs = [1 if i > 0 else -1 for i in norm.indices]
    assert all(a != b for a, b in zip(signs, signs[1:]))


@settings(max_examples=500, deadline=None)
@given(long_chains)
def test_normalize_chain_matches_the_restart_loop(chain):
    # one stack pass against the loop that rescans from the left after each rewrite
    assert normalize_chain(chain).indices == oracle_normalize_chain(chain)


@settings(max_examples=100, deadline=None)
@given(chains, st.integers(min_value=0, max_value=10_000))
def test_normalize_chain_preserves_action(chain, seed):
    rng = random.Random(seed)
    j = rng.randint(1, 7)
    d = rng.randint(1, j + 1)
    V = random_space(d, j, F101, seed=seed)
    try:
        W = apply_chain(V, chain)
    except PreconditionError:
        return  # chain not applicable at this degree
    assert apply_chain(V, normalize_chain(chain)) == W


def test_related_classes_worked_example():
    cls = related_classes(_mono_space())
    assert len(cls) == 3
    assert [generator_degrees(I) for I in cls] == [(3, 4), (3,), (0,)]
    assert hilbert_function(cls[0]) == oseq([1, 2, 3, 3, 2, 1], 0)
    assert hilbert_function(cls[1]) == oseq([1, 2], 3)
    assert hilbert_function(cls[2]) == oseq([], 0)


def test_related_classes_principal():
    P = principal_space(form(QQ, 2, [1, 0, 1]), 4)
    cls = related_classes(P)
    assert len(cls) == 1
    assert generator_degrees(cls[0]) == (2,)


def test_related_classes_zero_space_rejected():
    from binforms.spaces import zero_space

    with pytest.raises(PreconditionError):
        related_classes(zero_space(QQ, 3))


def test_related_classes_bound_random():
    rng = random.Random(7)
    checked = 0
    saw_bound_attained = False
    for trial in range(80):
        j = rng.randint(2, 8)
        d = rng.randint(1, j + 1)
        V = random_space(d, j, F101, seed=10_000 + trial)
        if V.is_zero:
            continue
        t = tau(V)
        if t > 4:
            continue
        n = len(related_classes(V))
        assert n <= 2**t - 1
        if t == 2 and n == 3:
            saw_bound_attained = True
        checked += 1
    assert checked >= 60
    assert saw_bound_attained


def test_tau_equal_chains_are_equivalent():
    rng = random.Random(11)
    hits = 0
    for trial in range(150):
        j = rng.randint(2, 7)
        d = rng.randint(1, j + 1)
        V = random_space(d, j, F101, seed=20_000 + trial)
        if V.is_zero:
            continue
        chain = tuple(rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(1, 3)))
        try:
            W = apply_chain(V, chain)
        except PreconditionError:
            continue
        if W.is_zero:
            continue
        if tau(W) == tau(V):
            assert equivalent(V, W)
            hits += 1
    assert hits >= 30


def test_mono3_validation():
    with pytest.raises(PreconditionError):
        mono3(5, [(2, 3, 1)])
    with pytest.raises(PreconditionError):
        mono3(5, [(6, -1, 0)])
    with pytest.raises(PreconditionError):
        shift3(mono3(2, [(1, 1, 0)]), -3)


def test_shift3_up_down_identity_on_full_set():
    for j in range(0, 5):
        full = mono3(j, [(a, b, j - a - b) for a in range(j + 1) for b in range(j + 1 - a)])
        for s in (1, 2):
            assert shift3(shift3(full, s), -s) == full


def test_berman_check():
    report = berman_check()
    assert report.passed
    assert report.witness == (2, 2, 2)
    assert report.recovered
    assert shift3(report.w, -2) == report.v
    for S in (report.v, report.w, mono3(3, []), mono3(0, [(0, 0, 0)])):
        assert shift3(S, 0) == S
    # (2,2,2) separates the down-shift of W from the up-shift of V
    assert report.witness in shift3(report.w, -1).monomials
    assert report.witness not in shift3(report.v, 1).monomials


def test_chain_spec_len():
    assert len(ChainSpec((1, -2, 3))) == 3
    assert len(chain_spec([2, 2])) == 2


# ── the step-to-step walk against the walk back to W ─────────────────────────

WALK_FIELDS = [F101, QQ]


@st.composite
def walk_spaces(draw):
    """Random spaces, spaces f.U with a planted common factor f, and principal
    blocks, over F_101 and Q with d <= 8 and j <= 16."""
    F = draw(st.sampled_from(WALK_FIELDS))
    kind = draw(st.sampled_from(["random", "factor", "principal"]))
    j = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    if kind == "random":
        return random_space(draw(st.integers(1, min(8, j + 1))), j, F, seed)
    k = draw(st.integers(1, j))
    f = form(F, k, [rng.randint(-3, 3) for _ in range(k)] + [1])
    if kind == "principal":
        return principal_space(f, j)
    d = draw(st.integers(1, min(8, j - k + 1)))
    return span(F, j, [mul_form(f, g) for g in random_space(d, j - k, F, seed).basis_forms()])


def _fresh(W):
    """W without its memoized rungs, so each walk builds its own ladder."""
    return FormSpace(W.field, W.degree, W.mat)


@given(walk_spaces())
@settings(max_examples=80, deadline=None)
def test_step_walk_matches_walk_back_to_w(W):
    # the `steps` the recursion in related_classes passes for each sign
    for sign, steps in ((-1, W.degree), (1, W.cod + tau(W) + 2)):
        got = _first_inequivalent(_fresh(W), sign, steps)
        want = oracle_first_inequivalent(_fresh(W), sign, steps)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.degree == want.degree and got.mat == want.mat


def _count_rungs(monkeypatch):
    built = []
    for name in ("_shift_up_once", "_shift_down_once"):
        real = getattr(spaces, name)
        monkeypatch.setattr(spaces, name, lambda V, real=real: built.append(V) or real(V))
    return built


@pytest.mark.parametrize("field", WALK_FIELDS, ids=lambda F: F.name)
def test_down_walk_builds_at_most_two_rungs_per_step(monkeypatch, field):
    built = _count_rungs(monkeypatch)
    walked = 0
    for seed in range(8):
        f = form(field, 2, [1, seed, 1])
        for U in (random_space(2 + seed % 2, 5, field, seed),
                  span(field, 6, [mul_form(f, g) for g in random_space(2, 4, field, seed).basis_forms()])):
            # up-shifts of U inside its stable range walk down several equivalent steps
            W = _fresh(shift(U, 1 + seed % 4))
            del built[:]
            out = _first_inequivalent(W, -1, W.degree)
            k = W.degree - (out.degree if out is not None else 0)
            assert len(built) <= 2 * k + 1, (k, len(built))
            walked = max(walked, k)
    assert walked >= 4  # some walks are long enough to tell 2k + 1 from k^2

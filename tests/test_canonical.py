"""Invariants that shortcuts elsewhere read off without checking them.

Every FormSpace the library builds holds the canonical RREF basis of its span:
`spaces.FormSpace._principal` reads f off the last row, and `waring.gad` takes
the rows last first as their lex order.  Every OSequence the library returns is
normalized by `osequence.oseq`: `OSequence.stabilization` is its prefix length."""

import random

from hypothesis import given, settings, strategies as st

from binforms.closure import build_h, step_n, step_t
from binforms.errors import PreconditionError
from binforms.fields import GF, QQ
from binforms.forms import form
from binforms.hilbert import (
    Cmp,
    enumerate_acceptable,
    h_tau,
    hasse_edges,
    hilbert_from_partitions,
    le_partial,
    nose_tail,
    partitions_pq,
    realize_staircase,
)
from binforms.ideals import (
    ancestor_ideal,
    generated_ideal,
    hilbert_function,
    ideal_from_generators,
    level_ideal,
)
from binforms.linalg import rref
from binforms.osequence import oseq, parse_oseq
from binforms.spaces import _down_rungs, kernel_space, principal_space, random_space, shift, span
from binforms.waring import DualSpace, _ann_component, mu, n_mu_tau, perp, tau_delta

FIELDS = [GF(2), GF(7), GF(101), QQ]


def assert_canonical(V):
    assert V.mat == rref(V.mat), (V.field.name, V.degree, V.mat.rows)


def assert_normalized(H, upto=0):
    """H is `oseq`'s normal form of its own values, read well past its prefix."""
    top = max(len(H.prefix), upto) + 2
    assert H == oseq(H.prefix, H.constant) == oseq(H.values(top), H.constant), str(H)


def _ideal_components(I):
    return [I.component(i) for i in range(I.window_hi + 3)]


@st.composite
def spaces_in(draw):
    F = draw(st.sampled_from(FIELDS))
    j = draw(st.integers(0, 9))
    return random_space(draw(st.integers(0, j + 1)), j, F, draw(st.integers(0, 10**6)))


@settings(max_examples=120, deadline=None)
@given(spaces_in(), st.integers(0, 10**6))
def test_every_space_the_library_builds_is_in_canonical_rref(V, seed):
    F, j, rng = V.field, V.degree, random.Random(seed)
    built = [V, span(F, j, [[rng.randint(-3, 3) for _ in range(j + 1)] for _ in range(rng.randint(0, j + 2))])]
    built += [shift(V, s) for s in (-3, -2, -1, 1, 2, 3) if j + s >= 0]
    if F.p is None or F.p > j:  # the contraction pairing's characteristic
        W = perp(V)
        built += [W.space] + [_ann_component(W, i) for i in range(j + 3)]
        # the apolar path's lazy rungs: (Ann W)_{j-1} off tau_delta's RREF, (Ann W)_j off W's weighted rows
        built += [W._initial[1], kernel_space(F, j, W._weighted)]
        built += [kernel_space(F, j - 1, W._catalecticant.ints)] if j else []
    for I in (ancestor_ideal(V), level_ideal(V), generated_ideal(V)):
        built += _ideal_components(I)
    gens = [form(F, k, [rng.randint(-3, 3) for _ in range(k + 1)]) for k in rng.choices(range(j + 2), k=3)]
    built += _ideal_components(ideal_from_generators(F, gens))
    k = rng.randint(0, j)
    f = form(F, k, [rng.randint(-3, 3) for _ in range(k + 1)])
    built += [principal_space(f, k) for k in range(j + 3)]
    # echelon down-rungs, walked to the first zero rung before any of their rows is written: from
    # a span, from an up-rung and from the kernel of a random span's rows
    for top in (V, shift(V, 2), kernel_space(F, j, built[1].mat.ints)):
        walk = _down_rungs(top, top.degree)[1:]
        assert not any({"rows", "_ints"} & set(vars(W.mat)) for W in walk if "_kernel" in vars(W))
        built += walk
    for S in built:
        assert_canonical(S)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(2, 6).flatmap(lambda j: st.tuples(st.integers(1, j), st.just(j))),
       st.integers(0, 10**6), st.integers(0, 10**6))
def test_build_h_and_its_sequences_stay_canonical(F, dj, p1, p2):
    d, j = dj
    pool = enumerate_acceptable(d, j)
    Hs = pool[p1 % len(pool)]
    for H in (Hs, *nose_tail(Hs, j), h_tau(d, j, 1), parse_oseq(str(Hs))):
        assert_normalized(H, j)
    assert_normalized(hilbert_from_partitions(*partitions_pq(Hs, d, j), j, Hs.constant), j)
    below = [H for H in pool if le_partial(Hs, H, d, j) is Cmp.GREATER]
    if not below:
        return
    Ht = below[p2 % len(below)]
    (Np, Tp), (N, T) = nose_tail(Hs, j), nose_tail(Ht, j)
    if Np != N:
        assert_normalized(step_n(Np, N), j)
    if Tp != T:
        assert_normalized(step_t(Tp, T), j)
    try:
        _, source = realize_staircase(Hs, d, j, F)
        ideal = build_h(source, Ht, j).final_ideal
    except PreconditionError:  # a constant drop with no linear factor over F
        return
    for S in _ideal_components(source) + _ideal_components(ideal):
        assert_canonical(S)
    assert_normalized(hilbert_function(ideal), j)


@settings(max_examples=60, deadline=None)
@given(spaces_in())
def test_sequences_the_library_returns_are_normalized(V):
    j = V.degree
    for I in (ancestor_ideal(V), level_ideal(V), generated_ideal(V)):
        assert_normalized(hilbert_function(I), j)
    if 0 < V.cod and j >= 1 and (V.field.p is None or V.field.p > j):
        W = DualSpace(V)
        assert_normalized(n_mu_tau(mu(W), tau_delta(W), V.cod, j), j)


def test_every_sequence_of_the_poset_is_normalized():
    for d, j in ((1, 4), (3, 6), (4, 8)):
        for H in enumerate_acceptable(d, j):
            assert_normalized(H, j)
        for a, b in hasse_edges(d, j):
            assert_normalized(a, j)
            assert_normalized(b, j)

"""Stratum-closure witnesses: interpolation steps and nested-ideal builds."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from binforms import closure, ideals, linalg
from binforms.closure import BuildTrace, build_h, build_n, build_t, step_n, step_t
from binforms.errors import PreconditionError
from binforms.fields import GF, QQ
from binforms.forms import form
from binforms.hilbert import (
    Cmp,
    enumerate_acceptable,
    is_permissible_nose,
    le_partial,
    nose_tail,
    realize_staircase,
)
from binforms.ideals import (
    GradedIdeal,
    _assemble_ideal,
    _with_unit_tail,
    ancestor_ideal,
    graded_ideal,
    hilbert_function,
    level_ideal,
)
from binforms.osequence import oseq
from binforms.spaces import principal_space, random_space, space_sum, span, zero_space

from oracles import (
    gl2_image,
    oracle_build_h,
    oracle_check_nose_pair,
    oracle_check_tail_pair,
    oracle_extend_inside,
    random_gl2,
    walked_halves,
)


def _contained(inner, outer):
    return space_sum(inner, outer).dim == outer.dim


def test_step_n_worked_example():
    Np = oseq([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 11, 9, 7, 4, 0], 0)
    N = oseq([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 12, 11, 8, 4, 0], 0)
    N1 = step_n(Np, N)
    assert N1 == oseq([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 12, 10, 8, 4, 0], 0)
    assert step_n(N1, N) == N


def test_step_n_guards():
    N = oseq([1, 2, 3, 2, 0], 0)
    with pytest.raises(PreconditionError):
        step_n(N, N)
    # N' above N is the wrong orientation
    with pytest.raises(PreconditionError):
        step_n(oseq([1, 2, 3, 3, 0], 0), oseq([1, 2, 2, 2, 0], 0))


def test_step_n_single_block():
    # adjacent pair: one application lands exactly on the target
    Np = oseq([1, 2, 2, 2, 0], 0)
    N = oseq([1, 2, 3, 2, 0], 0)
    one = step_n(Np, N)
    assert one == N


def test_step_t_worked_examples():
    assert step_t(oseq([1, 2, 3, 4, 2, 1, 0], 0), oseq([1, 2, 3, 4, 2, 0], 0)) == oseq(
        [1, 2, 3, 4, 2, 0], 0
    )
    # dropping the eventual constant
    assert step_t(oseq([1, 2, 3, 4, 2, 1], 1), oseq([1, 2, 3, 4, 2, 0], 0)) == oseq(
        [1, 2, 3, 4, 2, 0], 0
    )
    with pytest.raises(PreconditionError):
        step_t(oseq([1, 2, 3, 4, 2, 0], 0), oseq([1, 2, 3, 4, 2, 0], 0))


# every refusal of the pair checks that step_n/step_t and build_n/build_t
# share, each with its message; the pair is (N', N) and (T', T)
T_35 = oseq([1, 2, 3, 4, 5], 3)  # a permissible tail for (d, j) = (3, 5)
PAIR_REFUSALS = [
    ("nose-constant", step_n, oseq([1, 2, 3, 2], 0), oseq([1, 2, 3, 2], 1), "not a level-type"),
    ("nose-zero-ideal", step_n, oseq([1, 2, 3, 2], 0), oseq([], None), "not a level-type"),
    ("nose-empty-prefix", step_n, oseq([1, 2, 3, 2], 0), oseq([], 0), "not a level-type"),
    ("nose-impermissible", step_n, oseq([1, 2, 3, 2], 0), oseq([1, 2, 3, 1, 2], 0),
     "not a permissible nose"),
    ("nose-mismatched", step_n, oseq([1, 2, 1], 0), oseq([1, 2, 3, 2], 0), "mismatched parameters"),
    ("nose-above", step_n, oseq([1, 2, 3, 4, 5, 3], 0), oseq([1, 2, 3, 3, 3, 3], 0),
     "N' <= N termwise"),
    ("tail-zero-ideal", step_t, T_35, oseq([], None), "not a tail sequence"),
    ("tail-impermissible", step_t, T_35, oseq([1, 2, 3, 4, 5, 1, 2], 0), "not a permissible tail"),
    ("tail-mismatched", step_t, T_35, oseq([1, 2, 3, 4, 3, 2, 1], 0), "mismatched parameters"),
    ("tail-below", step_t, oseq([1, 2, 3, 4, 5, 3], 1), oseq([1, 2, 3, 4, 5, 3, 2, 1], 0),
     "T' >= T termwise"),
]


@pytest.mark.parametrize("step,before,target,message", [c[1:] for c in PAIR_REFUSALS],
                         ids=[c[0] for c in PAIR_REFUSALS])
def test_step_pair_refusals(step, before, target, message):
    with pytest.raises(PreconditionError, match=message):
        step(before, target)


def _perturbed(S):
    """S with its constant raised by one, or one of its values up to its stabilization moved by one."""
    values = list(S.values(len(S.prefix)))
    out = [oseq(values, S.constant + 1)]
    for i, v in enumerate(values):
        out += [oseq(values[:i] + [w] + values[i + 1:], S.constant) for w in (v - 1, v + 1) if w >= 0]
    return out


def _outcome(step, before, target):
    try:
        return step(before, target)
    except PreconditionError as exc:
        return exc.payload()


@pytest.mark.parametrize("half", [0, 1], ids=["nose", "tail"])
def test_pair_checks_match_the_two_inference_oracle(half):
    """Every pair of permissible noses (tails) with d <= j <= 6, and each of them against each
    sequence one entry away from one of them, on either side: step_n (step_t) reads (d, j) off
    the target alone and must accept or refuse as the oracle that infers them from both."""
    step, oracle, walk = [(step_n, oracle_check_nose_pair, closure._step_n),
                          (step_t, oracle_check_tail_pair, closure._step_t)][half]
    halves = {nose_tail(H, j)[half] for j in range(1, 7) for d in range(1, j + 1)
              for H in enumerate_acceptable(d, j)}
    permissible = sorted(halves, key=str)
    perturbed = sorted({P for S in permissible for P in _perturbed(S)} - halves, key=str)
    pairs = [(a, b) for a in permissible for b in permissible]
    pairs += [pair for P in perturbed for S in permissible for pair in ((P, S), (S, P))]
    outcomes = set()
    for before, target in pairs:
        want = _outcome(lambda a, b: walk(a, b, *oracle(a, b))[0], before, target)
        assert _outcome(step, before, target) == want, (str(before), str(target))
        outcomes.add(want["message"] if isinstance(want, dict) else "a step")
    assert outcomes == {"a step", "sequences already agree; no step to take"} | [
        {"not a level-type sequence", "sequence is not a permissible nose",
         "nose pair has mismatched parameters", "nose step needs N' <= N termwise"},
        # no perturbation reaches the zero ideal, PAIR_REFUSALS' "not a tail sequence"
        {"sequence is not a permissible tail", "tail pair has mismatched parameters",
         "tail step needs T' >= T termwise"},
    ][half]


def test_build_h_full_chain_4_5():
    F = GF(101)
    _, source = realize_staircase(oseq([1], 2), 4, 5, F)
    target = oseq([1, 2, 3, 4, 4, 2], 0)
    tr = build_h(source, target, 5)
    assert hilbert_function(tr.final_ideal) == target
    assert tr.final_ideal.component(5) == source.component(5)
    # each recorded step stays inside one half of the construction
    for rec in tr.steps:
        assert rec.before != rec.after


def test_build_h_identity():
    F = GF(101)
    H = oseq([1, 2, 3, 4, 3, 2, 1], 0)
    _, source = realize_staircase(H, 4, 5, F)
    tr = build_h(source, H, 5)
    assert tr.steps == ()
    assert tr.final_ideal is source


def test_build_h_refuses_incomparable():
    F = GF(101)
    a = oseq([1, 2, 3, 4, 4, 3, 2, 1, 0], 0)
    b = oseq([1, 2, 3, 4, 5, 3, 1], 1)
    _, source = realize_staircase(b, 3, 5, F)
    with pytest.raises(PreconditionError):
        build_h(source, a, 5)


def test_constant_drop_needs_split_factor():
    # principal ideal generated by an irreducible quadratic: lowering the
    # eventual constant must strip a linear factor, which only exists after
    # a field extension
    f_q = form(QQ, 2, [1, 0, 1])  # x^2 + y^2
    V = principal_space(f_q, 4)
    source = ancestor_ideal(V)
    assert str(hilbert_function(source)) == "1(2)"
    targets = [H for H in enumerate_acceptable(3, 4) if H.constant == 1]
    target = targets[0]
    with pytest.raises(PreconditionError) as refusal:
        build_h(source, target, 4)
    # the payload names the factor as the CLI prints forms, not as a dataclass repr
    assert refusal.value.payload()["factor"] == "x^2 + y^2"

    # same shape over GF(5), where x^2 + y^2 = (x+2y)(x+3y)
    f_5 = form(GF(5), 2, [1, 0, 1])
    source5 = ancestor_ideal(principal_space(f_5, 4))
    tr = build_h(source5, target, 4)
    assert hilbert_function(tr.final_ideal) == target


def test_the_zero_space_nose_is_permissible_and_built_in_no_steps():
    # H(LA(0)) = 1, 2, …, j+1 (0) at d = 0 has no (P, Q); the nose check admits it by name
    for j in range(7):
        N = oseq(range(1, j + 2), 0)
        assert is_permissible_nose(N, 0, j)
        for F in (GF(101), QQ):
            assert build_n(level_ideal(zero_space(F, j)), N).steps == ()


def test_build_n_and_t_directly():
    F = GF(101)
    H = oseq([1, 2, 3, 4, 3, 2, 1], 0)
    _, source = realize_staircase(oseq([1], 2), 4, 5, F)
    N, T = nose_tail(H, 5)
    from binforms.ideals import unit_form
    from binforms.spaces import full_space, zero_space

    nose_src = graded_ideal(
        F,
        0,
        [source.component(i) for i in range(6)] + [full_space(F, 6)],
        unit_form(F),
    )
    out = build_n(nose_src, N)
    got = hilbert_function(out.final_ideal)
    assert got == N
    for i in range(7):
        assert _contained(out.final_ideal.component(i), nose_src.component(i))

    top = max(source.window_hi, 8)
    tail_src = graded_ideal(
        F,
        0,
        [zero_space(F, i) for i in range(5)]
        + [source.component(i) for i in range(5, top + 1)],
        source.tail_gcd,
    )
    out_t = build_t(tail_src, T)
    assert hilbert_function(out_t.final_ideal) == T
    for i in range(5, top + 2):
        assert _contained(tail_src.component(i), out_t.final_ideal.component(i))


# ── property sweep ────────────────────────────────────────────────────────────

small_dj = st.integers(2, 6).flatmap(
    lambda j: st.tuples(st.integers(1, j), st.just(j))
)


@settings(max_examples=30, deadline=None)
@given(small_dj, st.integers(0, 10**6), st.integers(0, 10**6),
       st.sampled_from([GF(101), GF(7), QQ]))
def test_build_h_on_comparable_pairs(dj, p1, p2, field):
    d, j = dj
    pool = enumerate_acceptable(d, j)
    Hs = pool[p1 % len(pool)]
    Ht = pool[p2 % len(pool)]
    if le_partial(Hs, Ht, d, j) is not Cmp.GREATER:
        return
    _, source = realize_staircase(Hs, d, j, field)
    with walked_halves() as halves:
        tr = build_h(source, Ht, j)
    # build_n, build_t and build_h assemble their ideals without graded_ideal's
    # checks; each half build_h walks, like its final ideal, passes them
    assert len(halves) == 2
    for I in [half for _, half in halves]:
        assert graded_ideal(I.field, I.window_lo, I.components, I.tail_gcd) == I
    _assert_witness(source, tr.final_ideal, Ht, j)
    # recorded interpolants chain together inside each half
    noses = [r for r in tr.steps if r.degrees[1] <= j]
    tails = [r for r in tr.steps if r.degrees[0] > j]
    assert len(noses) + len(tails) == len(tr.steps)
    for a, b in zip(noses, noses[1:]):
        assert a.after == b.before
    for a, b in zip(tails, tails[1:]):
        assert a.after == b.before


def _assert_witness(source, ideal, H, j):
    """A closure witness, checked from outside build_h: the ideal passes graded_ideal, has
    Hilbert function H and the source's degree-j component, lies inside the source up to j
    and holds it from j up (to one past the source's stabilization, where both are blocks)."""
    assert graded_ideal(ideal.field, ideal.window_lo, ideal.components, ideal.tail_gcd) == ideal
    assert hilbert_function(ideal) == H
    assert ideal.component(j) == source.component(j)
    top = max(hilbert_function(source).stabilization(), j) + 1
    for i in range(j + 1):
        assert _contained(ideal.component(i), source.component(i))
    for i in range(j, top + 1):
        assert _contained(source.component(i), ideal.component(i))


_GL2_BUILDS = [(GF(101), range(1, 8)), (GF(7), (4, 6)), (QQ, (4, 5))]


@pytest.mark.parametrize("field,js", _GL2_BUILDS, ids=[F.name for F, _ in _GL2_BUILDS])
def test_build_h_on_gl2_images_of_staircases(field, js):
    # a staircase source is monomial, and so is every cap its walks read: a walk that
    # dropped its base could still pick an ideal.  The ancestor ideal of g.V, for the swap
    # x <-> y and a seeded invertible g, is not monomial; every comparable target is built
    for j in js:
        for d in range(1, j + 1):
            pool = enumerate_acceptable(d, j)
            for Hs in pool:
                targets = [Ht for Ht in pool if le_partial(Hs, Ht, d, j) is Cmp.GREATER]
                if not targets:
                    continue
                V = realize_staircase(Hs, d, j, field)[0]
                rng = random.Random(f"gl2-build|{field.name}|{Hs}")
                for g in (((0, 1), (1, 0)), random_gl2(field, rng)):
                    source = ancestor_ideal(gl2_image(V, g))
                    assert hilbert_function(source) == Hs
                    for Ht in targets:
                        _assert_witness(source, build_h(source, Ht, j).final_ideal, Ht, j)


def _changed(before, after, lo, hi):
    return [i for i in range(lo, hi + 1) if before.value(i) != after.value(i)]


@pytest.mark.parametrize("field", [GF(101), QQ], ids=lambda F: F.name)
def test_step_blocks_are_where_the_sequences_differ(field):
    # every comparable pair with d <= j <= 6; each half is recorded on its own
    for j in range(1, 7):
        for d in range(1, j + 1):
            pool = enumerate_acceptable(d, j)
            for Hs in pool:
                _, source = realize_staircase(Hs, d, j, field)
                for Ht in pool:
                    if le_partial(Hs, Ht, d, j) not in (Cmp.GREATER, Cmp.EQUAL):
                        continue
                    with walked_halves() as halves:
                        tr = build_h(source, Ht, j)
                    if not halves:
                        assert tr.steps == ()
                        continue
                    (nose, _), (tail, _) = halves
                    assert tr.steps == nose + tail
                    for r in nose:
                        block = _changed(r.before, r.after, 0, j)
                        assert r.degrees == (min(block), max(block))
                    if tail:
                        first, last = tail[0].before, tail[-1].after
                        top = max(first.stabilization(), last.stabilization(), j) + 1
                        for r in tail:
                            block = _changed(r.before, r.after, j, top)
                            assert r.degrees == (min(block), max(block))


def test_builds_check_their_pair_once(monkeypatch):
    # each public step and build checks its pair on entry, and each step
    # trusts it and checks its output; build_h's le_partial vouches for both
    # of its pairs, and the glued ideal is the one ideal it assembles, unvalidated
    calls = []
    for name in ("_check_nose_pair", "_check_tail_pair"):
        real = getattr(closure, name)
        monkeypatch.setattr(
            closure, name, lambda A, B, _real=real, _name=name: calls.append(_name) or _real(A, B)
        )
    Np = oseq([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 11, 9, 7, 4, 0], 0)
    N = oseq([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 12, 11, 8, 4, 0], 0)
    assert step_n(step_n(Np, N), N) == N
    assert calls == ["_check_nose_pair"] * 2
    calls.clear()
    assert step_t(oseq([1, 2, 3, 4, 2, 1, 0], 0), oseq([1, 2, 3, 4, 2], 0)) == oseq([1, 2, 3, 4, 2], 0)
    assert calls == ["_check_tail_pair"]
    made, glued = [], []
    real_init, real_glue = GradedIdeal.__init__, ideals.graded_ideal
    monkeypatch.setattr(GradedIdeal, "__init__", lambda I, *a: made.append(I) or real_init(I, *a))
    monkeypatch.setattr(ideals, "graded_ideal", lambda *a: glued.append(a) or real_glue(*a))
    F = GF(101)
    for Hs, Ht, j in [
        (oseq([1, 2, 3, 3, 2, 1], 0), oseq([1, 2, 3, 4, 2], 0), 4),
        (oseq([1, 2, 3, 4, 3], 2), oseq([1, 2, 3, 4, 3, 2, 1], 0), 4),
    ]:
        d = j + 1 - Hs.value(j)
        source = realize_staircase(Hs, d, j, F)[1]
        del calls[:], made[:], glued[:]
        tr = build_h(source, Ht, j)
        assert hilbert_function(tr.final_ideal) == Ht and len(tr.steps) >= 2
        assert calls == [] and glued == []
        assert len(made) == 1 and made[0] is tr.final_ideal
        # the public builds on the half-ideals check their pairs once each
        N, T = nose_tail(Ht, j)
        nose = _with_unit_tail(F, [source.component(i) for i in range(j + 1)])
        tail_comps = [source.component(i) if i >= j else zero_space(F, i)
                      for i in range(source.window_hi + 1)]
        tail = _assemble_ideal(F, 0, tail_comps, source.tail_gcd)
        calls.clear()
        assert hilbert_function(build_n(nose, N).final_ideal) == N
        assert calls == ["_check_nose_pair"]
        calls.clear()
        assert hilbert_function(build_t(tail, T).final_ideal) == T
        assert calls == ["_check_tail_pair"]


@pytest.mark.parametrize("field", [GF(101), QQ], ids=lambda F: F.name)
def test_build_h_matches_the_composed_public_builds(field):
    # every comparable pair with d <= j <= 6: build_n on the nose ideal and
    # build_t on the tail ideal, glued at j, take build_h's steps to its ideal
    for j in range(1, 7):
        for d in range(1, j + 1):
            pool = enumerate_acceptable(d, j)
            for Hs in pool:
                _, source = realize_staircase(Hs, d, j, field)
                for Ht in pool:
                    if le_partial(Hs, Ht, d, j) in (Cmp.GREATER, Cmp.EQUAL):
                        assert build_h(source, Ht, j) == oracle_build_h(source, Ht, j)


def test_le_partial_vouches_for_the_nose_and_tail_pairs():
    # build_h checks neither pair: H' > H in the order makes both valid
    for j in range(1, 9):
        for d in range(1, j + 1):
            pool = enumerate_acceptable(d, j)
            for Hs in pool:
                Np, Tp = nose_tail(Hs, j)
                for Ht in pool:
                    if le_partial(Hs, Ht, d, j) is Cmp.GREATER:
                        N, T = nose_tail(Ht, j)
                        assert closure._check_nose_pair(Np, N) == (d, j)
                        assert closure._check_tail_pair(Tp, T)[:2] == (d, j)


# ── subspace choice: one column rank profile ──────────────────────────────────


def _base_inside(cap, k, seed):
    """The span of k random combinations of cap's basis."""
    F, rng = cap.field, random.Random(seed)
    combos = [[rng.randint(-3, 3) for _ in cap.mat.rows] for _ in range(k)]
    rows = [[sum(a * x for a, x in zip(cs, col)) for col in zip(*cap.mat.rows)] for cs in combos]
    return span(F, cap.degree, rows) if cap.dim else zero_space(F, cap.degree)


@settings(deadline=None, max_examples=80)
@given(
    st.sampled_from([GF(7), GF(101), QQ]),
    st.integers(0, 10),
    st.integers(0, 11),
    st.integers(0, 11),
    st.integers(0, 10**6),
)
def test_extend_inside_matches_the_greedy_loop(field, j, cap_dim, k, seed):
    cap = random_space(min(cap_dim, j + 1), j, field, seed)
    base = _base_inside(cap, min(k, cap.dim), seed)
    for target in range(base.dim, cap.dim + 1):
        assert closure._extend_inside(base, cap, target) == oracle_extend_inside(base, cap, target)


@pytest.mark.parametrize("field", [GF(101), QQ], ids=lambda F: F.name)
def test_extend_inside_eliminates_twice(monkeypatch, field):
    cap = random_space(6, 9, field, 2)
    base = _base_inside(cap, 2, 3)
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m) or real(m))
    for target in range(base.dim, cap.dim + 1):
        calls.clear()
        out = closure._extend_inside(base, cap, target)
        assert out.dim == target
        assert len(calls) == 2


def test_extend_inside_refusals():
    F = GF(101)
    cap = span(F, 3, [[1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(RuntimeError, match="base escapes its cap"):
        closure._extend_inside(span(F, 3, [[0, 0, 1, 0]]), cap, 2)
    base = span(F, 3, [[1, 1, 0, 0]])
    for target in (0, 3):
        with pytest.raises(RuntimeError, match="subspace choice impossible"):
            closure._extend_inside(base, cap, target)

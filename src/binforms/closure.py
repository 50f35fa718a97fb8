"""Witnesses for stratum closure: sequence interpolation and nested ideals.

Given two comparable Hilbert functions H' ≥ H (H' more special), these
routines build an ideal with the more generic Hilbert function H whose
degree-j component equals that of a given ideal realizing H'.  The nose
(degrees ≤ j) is grown one block at a time, each block being the largest
run of equal first differences below the highest degree where the two
sequences still disagree; the tail (degrees ≥ j) is shrunk symmetrically
from the lowest disagreement upward.  When the eventual constant has to
drop, the common factor loses one linear factor per move, so those moves
need the factor to split over the base field.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .forms import BinaryForm, divide_form, smallest_linear_factor
from .hilbert import (
    Cmp,
    is_acceptable,
    is_permissible_nose,
    is_permissible_tail,
    le_partial,
    nose_tail,
)
from .ideals import GradedIdeal, graded_ideal, hilbert_function, unit_form
from .osequence import OSequence, oseq
from .spaces import (
    FormSpace,
    contained,
    full_space,
    principal_space,
    shift,
    space_sum,
    span,
    zero_space,
)


@dataclass(frozen=True)
class StepRecord:
    before: OSequence
    after: OSequence
    degrees: tuple[int, int]


@dataclass(frozen=True)
class BuildTrace:
    steps: tuple[StepRecord, ...]
    final_ideal: GradedIdeal


# ── parameter inference ───────────────────────────────────────────────────────


def _nose_params(N: OSequence) -> tuple[int, int]:
    if N.is_zero_ideal or N.constant != 0 or not N.prefix:
        raise PreconditionError("not a level-type sequence", N=str(N))
    j = len(N.prefix) - 1
    d = j + 1 - N.value(j)
    if not is_permissible_nose(N, d, j):
        raise PreconditionError("sequence is not a permissible nose", N=str(N))
    return d, j


def _tail_params(T: OSequence) -> tuple[int, int]:
    if T.is_zero_ideal:
        raise PreconditionError("not a tail sequence", T=str(T))
    j = T.order()
    d = j + 1 - T.value(j)
    if not is_permissible_tail(T, d, j):
        raise PreconditionError("sequence is not a permissible tail", T=str(T))
    return d, j


# ── single interpolation steps ────────────────────────────────────────────────


def step_n(Nprime: OSequence, N: OSequence) -> OSequence:
    """One move of the nose interpolation: raise the highest possible block.

    The block is the maximal run of equal first differences of N' ending at
    the top degree where N' still lags N; the whole run is raised by one."""
    d, j = _nose_params(N)
    dp, jp = _nose_params(Nprime)
    if (d, j) != (dp, jp):
        raise PreconditionError("nose pair has mismatched parameters")
    if any(Nprime.value(i) > N.value(i) for i in range(j + 1)):
        raise PreconditionError("nose step needs N' <= N termwise")
    if Nprime == N:
        raise PreconditionError("sequences already agree; no step to take")
    t = max(i for i in range(j + 1) if Nprime.value(i) != N.value(i))
    a = 0
    while t - a - 1 >= 0 and Nprime.e(t - a - 1) == Nprime.e(t):
        a += 1
    out = oseq(
        [
            Nprime.value(i) + (1 if t - a <= i <= t else 0)
            for i in range(j + 1)
        ],
        0,
    )
    if not is_permissible_nose(out, d, j):
        raise RuntimeError(f"nose step produced an impermissible sequence {out}")
    if any(out.value(i) > N.value(i) for i in range(j + 1)):
        raise RuntimeError(f"nose step overshot the target: {out} vs {N}")
    return out


def step_t(Tprime: OSequence, T: OSequence) -> OSequence:
    """One move of the tail interpolation: lower the lowest possible block.

    When the first disagreement sits inside the constant range of T', every
    later value drops together and the eventual constant decreases."""
    d, j = _tail_params(T)
    dp, jp = _tail_params(Tprime)
    if (d, j) != (dp, jp):
        raise PreconditionError("tail pair has mismatched parameters")
    top = max(Tprime.stabilization(), T.stabilization(), j) + 1
    if any(Tprime.value(i) < T.value(i) for i in range(j, top + 1)):
        raise PreconditionError("tail step needs T' >= T termwise")
    if Tprime == T:
        raise PreconditionError("sequences already agree; no step to take")
    t = min(i for i in range(j, top + 1) if Tprime.value(i) != T.value(i))
    if Tprime.e(t + 1) == 0:
        # constant range: drop everything from t on, lowering the constant
        out = oseq(
            [Tprime.value(i) - (1 if i >= t else 0) for i in range(top + 1)],
            Tprime.constant - 1,
        )
    else:
        a = 1
        while Tprime.e(t + 1 + a) == Tprime.e(t + 1):
            a += 1
        out = oseq(
            [
                Tprime.value(i) - (1 if t <= i <= t + a - 1 else 0)
                for i in range(top + 1)
            ],
            Tprime.constant,
        )
    if not is_permissible_tail(out, d, j):
        raise RuntimeError(f"tail step produced an impermissible sequence {out}")
    if any(out.value(i) < T.value(i) for i in range(j, top + 2)):
        raise RuntimeError(f"tail step undershot the target: {out} vs {T}")
    return out


# ── subspace choice ───────────────────────────────────────────────────────────


def _extend_inside(base: FormSpace, cap: FormSpace, target_dim: int) -> FormSpace:
    """Grow `base` to `target_dim` by adjoining basis forms of `cap` in order."""
    if not contained(base, cap):
        raise RuntimeError("subspace choice: base escapes its cap")
    if not base.dim <= target_dim <= cap.dim:
        raise RuntimeError(
            f"subspace choice impossible: {base.dim} <= {target_dim} <= {cap.dim}"
        )
    cur = base
    for f in cap.basis_forms():
        if cur.dim == target_dim:
            break
        bigger = space_sum(cur, span(cap.field, cap.degree, [f]))
        if bigger.dim > cur.dim:
            cur = bigger
    if cur.dim != target_dim:
        raise RuntimeError("subspace choice ran out of vectors")
    return cur


# ── ideal constructions ───────────────────────────────────────────────────────


def build_n(Iprime: GradedIdeal, N: OSequence) -> BuildTrace:
    """An ideal inside I' with level-type Hilbert function N (N' ≤ N)."""
    d, j = _nose_params(N)
    F = Iprime.field
    cur = hilbert_function(Iprime)
    _nose_params(cur)
    comps = [Iprime.component(i) for i in range(j + 2)]
    if comps[j + 1].dim != j + 2:
        raise PreconditionError("nose construction expects everything above j")
    ideal = Iprime
    steps = []
    while cur != N:
        nxt = step_n(cur, N)
        block = [i for i in range(j + 1) if nxt.value(i) != cur.value(i)]
        lo, hi = min(block), max(block)
        new = list(comps)
        for u in range(lo, hi + 1):
            base = shift(new[u - 1], 1) if u >= 1 else zero_space(F, 0)
            new[u] = _extend_inside(base, comps[u], u + 1 - nxt.value(u))
        ideal = graded_ideal(F, 0, new, unit_form(F))
        if hilbert_function(ideal) != nxt:
            raise RuntimeError("nose construction missed its interpolant")
        steps.append(StepRecord(cur, nxt, (lo, hi)))
        cur, comps = nxt, new
    return BuildTrace(tuple(steps), ideal)


def _strip_linear(f: BinaryForm) -> BinaryForm:
    lin = smallest_linear_factor(f)
    if lin is None:
        raise PreconditionError(
            "common factor has no linear factor over this field; "
            "an extension field is required",
            factor=str(f),
        )
    return divide_form(f, lin)


def build_t(Iprime: GradedIdeal, T: OSequence) -> BuildTrace:
    """An ideal containing I' with tail-type Hilbert function T (T ≤ T')."""
    d, j = _tail_params(T)
    F = Iprime.field
    cur = hilbert_function(Iprime)
    _tail_params(cur)
    top = max(cur.stabilization(), T.stabilization(), j) + 1
    comps = [Iprime.component(i) for i in range(top + 1)]
    tail = Iprime.tail_gcd
    ideal = Iprime
    steps = []
    while cur != T:
        nxt = step_t(cur, T)
        new = list(comps)
        if nxt.constant != cur.constant:
            t = min(i for i in range(j, top + 1) if nxt.value(i) != cur.value(i))
            tail = _strip_linear(tail)
            for u in range(t, top + 1):
                new[u] = principal_space(tail, u)
            block = (t, top)
        else:
            block_deg = [
                i for i in range(j, top + 1) if nxt.value(i) != cur.value(i)
            ]
            lo, hi = min(block_deg), max(block_deg)
            for u in range(hi, lo - 1, -1):
                cap = shift(new[u + 1], -1)
                new[u] = _extend_inside(comps[u], cap, u + 1 - nxt.value(u))
            block = (lo, hi)
        ideal = graded_ideal(F, 0, new, tail)
        if hilbert_function(ideal) != nxt:
            raise RuntimeError("tail construction missed its interpolant")
        steps.append(StepRecord(cur, nxt, block))
        cur, comps = nxt, new
    return BuildTrace(tuple(steps), ideal)


def build_h(Iprime: GradedIdeal, H: OSequence, j: int) -> BuildTrace:
    """An ideal I with H(R/I) = H and I_j = I'_j, for H' ≥ H in the order.

    The nose is rebuilt inside I' + (everything above j), the tail above I'
    with degrees < j discarded, and the halves share the untouched degree-j
    component."""
    F = Iprime.field
    Hp = hilbert_function(Iprime)
    d = j + 1 - Hp.value(j)
    if not is_acceptable(H, d, j):
        raise PreconditionError("target sequence not acceptable", H=str(H), d=d, j=j)
    order = le_partial(Hp, H, d, j)
    if order is Cmp.EQUAL:
        return BuildTrace((), Iprime)
    if order is not Cmp.GREATER:
        raise PreconditionError(
            "source stratum is not a specialization of the target",
            source=str(Hp),
            target=str(H),
            relation=order.value,
        )
    N, T = nose_tail(H, j)
    nose_comps = [Iprime.component(i) for i in range(j + 1)] + [full_space(F, j + 1)]
    nose_ideal = graded_ideal(F, 0, nose_comps, unit_form(F))
    top = max(Hp.stabilization(), T.stabilization(), j) + 1
    tail_comps = [zero_space(F, i) for i in range(j)] + [
        Iprime.component(i) for i in range(j, top + 1)
    ]
    tail_ideal = graded_ideal(F, 0, tail_comps, Iprime.tail_gcd)

    nose_trace = build_n(nose_ideal, N)
    tail_trace = build_t(tail_ideal, T)
    In, It = nose_trace.final_ideal, tail_trace.final_ideal

    glued = [In.component(i) for i in range(j)] + [
        It.component(i) for i in range(j, top + 1)
    ]
    ideal = graded_ideal(F, 0, glued, It.tail_gcd)
    if hilbert_function(ideal) != H:
        raise RuntimeError("glued ideal has the wrong Hilbert function")
    if ideal.component(j) != Iprime.component(j):
        raise RuntimeError("glued ideal moved the degree-j component")
    for i in range(j + 1):
        if not contained(ideal.component(i), Iprime.component(i)):
            raise RuntimeError(f"inclusion fails below j at degree {i}")
    for i in range(j, top + 2):
        if not contained(Iprime.component(i), ideal.component(i)):
            raise RuntimeError(f"inclusion fails above j at degree {i}")
    return BuildTrace(nose_trace.steps + tail_trace.steps, ideal)

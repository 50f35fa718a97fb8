"""Witnesses for stratum closure: sequence interpolation and nested ideals.

Given two comparable Hilbert functions H' ≥ H (H' more special), these
routines build an ideal with the more generic Hilbert function H whose
degree-j component equals that of a given ideal realizing H'.  The nose
(degrees ≤ j) is grown one block at a time, each block being the largest
run of equal first differences below the highest degree where the two
sequences still disagree; the tail (degrees ≥ j) is shrunk symmetrically
from the lowest disagreement upward.  When the eventual constant has to
drop, the common factor loses one linear factor per move, so those moves
need the factor to split over the base field.  Both walks edit one component
list in place; each public call checks its pair once and assembles one ideal.

The assembled ideal is not validated again; each of its facts is certified
where it is made.  `le_partial` (or a public call's pair check) certifies both
endpoints; `_step_n`/`_step_t` certify each step's sequence, and the walks'
scans each step's component dimensions and tail degree, so H is right.
`_extend_inside`'s rank profile certifies that each edited component holds
its base and lies in its cap, so the list stays closed under R_1, the nose
shrinks inside I' and the tail grows over it; a constant drop swaps the
blocks above t for those of a divisor of the tail.  The source ideal was
validated where it entered (`ideals.ideal_from_json`) or built closed.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import PreconditionError
from .forms import BinaryForm, divide_form, format_form, linear_factors
from .hilbert import (
    Cmp,
    is_permissible_nose,
    is_permissible_tail,
    le_partial,
    nose_tail,
)
from .ideals import GradedIdeal, _assemble_ideal, _with_unit_tail, hilbert_function
from .osequence import OSequence, oseq
from .spaces import FormSpace, principal_space, shift, zero_space


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


def _nose_params(S: OSequence) -> tuple[int, int]:
    if S.is_zero_ideal or S.constant != 0 or not S.prefix:
        raise PreconditionError("not a level-type sequence", N=str(S))
    j = len(S.prefix) - 1
    d = j + 1 - S.value(j)
    if not is_permissible_nose(S, d, j):
        raise PreconditionError("sequence is not a permissible nose", N=str(S))
    return d, j


def _check_nose_pair(Nprime: OSequence, N: OSequence) -> tuple[int, int]:
    """(d, j) read off the target N (so d <= j); a source N' permissible there reads the same
    (d, j) off itself, and any other is refused for its own fault if it has one, else for the mismatch."""
    d, j = _nose_params(N)
    if not is_permissible_nose(Nprime, d, j):
        _nose_params(Nprime)
        raise PreconditionError("nose pair has mismatched parameters")
    if any(Nprime.value(i) > N.value(i) for i in range(j + 1)):
        raise PreconditionError("nose step needs N' <= N termwise")
    return d, j


def _tail_params(S: OSequence) -> tuple[int, int]:
    if S.is_zero_ideal:
        raise PreconditionError("not a tail sequence", T=str(S))
    j = S.order()
    d = j + 1 - S.value(j)
    if not is_permissible_tail(S, d, j):
        raise PreconditionError("sequence is not a permissible tail", T=str(S))
    return d, j


def _check_tail_pair(Tprime: OSequence, T: OSequence) -> tuple[int, int, int]:
    """(d, j) as `_check_nose_pair` reads them, and the walk's top: one past j, T', T's stabilizations."""
    d, j = _tail_params(T)
    if not is_permissible_tail(Tprime, d, j):
        _tail_params(Tprime)
        raise PreconditionError("tail pair has mismatched parameters")
    top = max(Tprime.stabilization(), T.stabilization(), j) + 1
    if any(Tprime.value(i) < T.value(i) for i in range(j, top + 1)):
        raise PreconditionError("tail step needs T' >= T termwise")
    return d, j, top


# ── single interpolation steps ────────────────────────────────────────────────


def step_n(Nprime: OSequence, N: OSequence) -> OSequence:
    """One move of the nose interpolation: raise the highest possible block.

    The block is the maximal run of equal first differences of N' ending at
    the top degree where N' still lags N; the whole run is raised by one."""
    return _step_n(Nprime, N, *_check_nose_pair(Nprime, N))[0]


def _step_n(
    Nprime: OSequence, N: OSequence, d: int, j: int
) -> tuple[OSequence, tuple[int, int]]:
    """The step and the block (t - a, t) of degrees it raises."""
    if Nprime == N:  # the pair is checked, with parameters (d, j)
        raise PreconditionError("sequences already agree; no step to take")
    t = max(i for i in range(j + 1) if Nprime.value(i) != N.value(i))
    a = 0
    while t - a - 1 >= 0 and Nprime.e(t - a - 1) == Nprime.e(t):
        a += 1
    raised = [Nprime.value(i) + (1 if t - a <= i <= t else 0) for i in range(j + 1)]
    out = oseq(raised, 0)
    if not is_permissible_nose(out, d, j):
        raise RuntimeError(f"nose step produced an impermissible sequence {out}")
    if any(out.value(i) > N.value(i) for i in range(j + 1)):
        raise RuntimeError(f"nose step overshot the target: {out} vs {N}")
    return out, (t - a, t)


def step_t(Tprime: OSequence, T: OSequence) -> OSequence:
    """One move of the tail interpolation: lower the lowest possible block.

    When the first disagreement sits inside the constant range of T', every
    later value drops together and the eventual constant decreases."""
    return _step_t(Tprime, T, *_check_tail_pair(Tprime, T))[0]


def _step_t(
    Tprime: OSequence, T: OSequence, d: int, j: int, top: int
) -> tuple[OSequence, tuple[int, int]]:
    """The step and the block it lowers: (t, t + a - 1) for a run, or (t, top)
    for a constant drop, top being the walk's: every T' on it stabilizes below."""
    if Tprime == T:  # the pair is checked, with parameters (d, j)
        raise PreconditionError("sequences already agree; no step to take")
    t = min(i for i in range(j, top + 1) if Tprime.value(i) != T.value(i))
    if Tprime.e(t + 1) == 0:
        # constant range: drop everything from t on, lowering the constant
        hi, constant = top, Tprime.constant - 1
    else:
        a = 1
        while Tprime.e(t + 1 + a) == Tprime.e(t + 1):
            a += 1
        hi, constant = t + a - 1, Tprime.constant
    lowered = [Tprime.value(i) - (1 if t <= i <= hi else 0) for i in range(top + 1)]
    out = oseq(lowered, constant)
    if not is_permissible_tail(out, d, j):
        raise RuntimeError(f"tail step produced an impermissible sequence {out}")
    if any(out.value(i) < T.value(i) for i in range(j, top + 2)):
        raise RuntimeError(f"tail step undershot the target: {out} vs {T}")
    return out, (t, hi)


# ── subspace choice ───────────────────────────────────────────────────────────


def _extend_inside(base: FormSpace, cap: FormSpace, target_dim: int) -> FormSpace:
    """Grow `base` to `target_dim` by adjoining basis forms of `cap` in order.

    One elimination of the columns (base's basis, cap's basis) certifies and
    chooses: its pivots, the column rank profile, are base's columns and then
    the cap forms the greedy loop adjoins, dim cap of them iff base lies in
    cap.  A second one reduces the choice."""
    F, rows = cap.field, base.mat.ints + cap.mat.ints  # scaling a row moves no pivot and no span
    profile = linalg.pivots(linalg.rref(linalg.from_ints(F, tuple(zip(*rows)), len(rows))))
    if len(profile) != cap.dim:
        raise RuntimeError("subspace choice: base escapes its cap")
    if not base.dim <= target_dim <= cap.dim:
        raise RuntimeError(
            f"subspace choice impossible: {base.dim} <= {target_dim} <= {cap.dim}"
        )
    chosen = linalg.from_ints(F, tuple(rows[c] for c in profile[:target_dim]), cap.degree + 1)
    return FormSpace(F, cap.degree, linalg.rref(chosen))


# ── ideal constructions ───────────────────────────────────────────────────────


def _nose_steps(
    comps: list[FormSpace], Nprime: OSequence, N: OSequence, d: int, j: int
) -> tuple[StepRecord, ...]:
    """Walk comps[:j] from N' to N in place, each cap read before it is written."""
    F, cur, steps = comps[0].field, Nprime, []
    while cur != N:
        nxt, (lo, hi) = _step_n(cur, N, d, j)
        for u in range(lo, hi + 1):
            base = shift(comps[u - 1], 1) if u >= 1 else zero_space(F, 0)
            comps[u] = _extend_inside(base, comps[u], u + 1 - nxt.value(u))
        if any(comps[i].dim != i + 1 - nxt.value(i) for i in range(j)):
            raise RuntimeError("nose construction missed its interpolant")
        steps.append(StepRecord(cur, nxt, (lo, hi)))
        cur = nxt
    return tuple(steps)


def build_n(Iprime: GradedIdeal, N: OSequence) -> BuildTrace:
    """An ideal inside I' with level-type Hilbert function N (N' ≤ N)."""
    Nprime = hilbert_function(Iprime)
    d, j = _check_nose_pair(Nprime, N)  # each step's output is checked in _step_n
    if Iprime.dim(j + 1) != j + 2:
        raise PreconditionError("nose construction expects everything above j")
    comps = [Iprime.component(i) for i in range(j + 1)]
    steps = _nose_steps(comps, Nprime, N, d, j)
    return BuildTrace(steps, _with_unit_tail(Iprime.field, comps) if steps else Iprime)


def _strip_linear(f: BinaryForm) -> BinaryForm:
    factors, _ = linear_factors(f)
    if not factors:
        raise PreconditionError(
            "common factor has no linear factor over this field; "
            "an extension field is required",
            factor=format_form(f),
        )
    return divide_form(f, factors[0][0])


def _tail_steps(
    comps: list[FormSpace], tail: BinaryForm, Tprime: OSequence, T: OSequence, d: int, j: int
) -> tuple[tuple[StepRecord, ...], BinaryForm]:
    """Walk comps[j+1:] from T' to T in place, downwards: the steps and the tail gcd."""
    top, cur, steps = len(comps) - 1, Tprime, []
    while cur != T:
        nxt, (lo, hi) = _step_t(cur, T, d, j, top)
        if nxt.constant != cur.constant:
            tail = _strip_linear(tail)
            for u in range(lo, top + 1):
                comps[u] = principal_space(tail, u)
        else:
            for u in range(hi, lo - 1, -1):
                cap = shift(comps[u + 1], -1)
                comps[u] = _extend_inside(comps[u], cap, u + 1 - nxt.value(u))
        owned = range(j + 1, top + 1)
        if tail.degree != nxt.constant or any(comps[i].dim != i + 1 - nxt.value(i) for i in owned):
            raise RuntimeError("tail construction missed its interpolant")
        steps.append(StepRecord(cur, nxt, (lo, hi)))
        cur = nxt
    return tuple(steps), tail


def build_t(Iprime: GradedIdeal, T: OSequence) -> BuildTrace:
    """An ideal containing I' with tail-type Hilbert function T (T ≤ T')."""
    Tprime = hilbert_function(Iprime)
    d, j, top = _check_tail_pair(Tprime, T)  # each step's output is checked in _step_t
    comps = [Iprime.component(i) for i in range(top + 1)]
    steps, tail = _tail_steps(comps, Iprime.tail_gcd, Tprime, T, d, j)
    return BuildTrace(steps, _assemble_ideal(Iprime.field, 0, comps, tail) if steps else Iprime)


def build_h(Iprime: GradedIdeal, H: OSequence, j: int) -> BuildTrace:
    """An ideal I with H(R/I) = H and I_j = I'_j, for H' ≥ H in the order.

    Both walks edit one list I'_0 .. I'_top in place, the nose below j and the
    tail above j; neither writes I'_j, and the list they leave is I's window.
    It is assembled unchecked: `le_partial` vouches for both endpoints, the
    walks for each step's H, and `_extend_inside` for R_1-closure and for
    I ⊆ I' below j and I' ⊆ I above it (see the module header)."""
    Hp = hilbert_function(Iprime)
    d = j + 1 - Hp.value(j)
    order = le_partial(Hp, H, d, j)  # both acceptable and H' >= H: so are the walks' pairs
    if order is Cmp.EQUAL:
        return BuildTrace((), Iprime)
    if order is not Cmp.GREATER:
        raise PreconditionError(
            "source stratum is not a specialization of the target",
            source=str(Hp),
            target=str(H),
            relation=order.value,
        )
    (Np, Tp), (N, T) = nose_tail(Hp, j), nose_tail(H, j)
    top = max(Hp.stabilization(), T.stabilization(), j) + 1
    comps = [Iprime.component(i) for i in range(top + 1)]
    nose_steps = _nose_steps(comps, Np, N, d, j)
    tail_steps, gcd = _tail_steps(comps, Iprime.tail_gcd, Tp, T, d, j)
    return BuildTrace(nose_steps + tail_steps, _assemble_ideal(Iprime.field, 0, comps, gcd))

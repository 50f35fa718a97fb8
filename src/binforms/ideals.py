"""Graded ideals of the binary polynomial ring, stored one component per degree.

A GradedIdeal keeps an explicit window of components [window_lo .. window_hi]
plus the monic gcd of the stable tail: above the window the component in
degree i is (tail_gcd) ∩ R_i.  Below the window all components are zero.
The zero ideal is the one case with no components and no tail.

The three ideals attached to a space V of degree-j forms:

  ancestor_ideal(V)   components R_{i-j}V in every degree
  level_ideal(V)      R_{i-j}V up to degree j, everything above
  generated_ideal(V)  R_{i-j}V from degree j up, nothing below

Numeric Betti data (generator/relation degrees) comes from dimension counts,
no syzygy modules are ever built.  The tail gcd is read off the stable top:
there the component is a principal block f.R_s, which knows its f (spaces).

An ideal is validated once, where it enters: `graded_ideal` (fields, degrees,
R_1-closure, tail) runs in `ideal_from_json`, `ideal_from_generators`, on
`closure.build_h`'s final ideal and for direct callers.  Ideals closed under
R_1 by construction (the ladders above, the annihilator, the closure steps)
go through `_assemble_ideal`, which checks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import PreconditionError
from .fields import FieldSpec
from .forms import (
    BinaryForm,
    form_from_json,
    form_to_json,
    monic,
)
from .osequence import OSequence, oseq
from .spaces import (
    FormSpace,
    contained,
    full_space,
    principal_space,
    shift,
    space_from_json,
    space_sum,
    space_to_json,
    span,
    tau,
    zero_space,
)


def unit_form(field: FieldSpec) -> BinaryForm:
    return BinaryForm(field, 0, (field.one,))


@dataclass(frozen=True)
class GradedIdeal:
    field: FieldSpec
    window_lo: int
    window_hi: int
    components: tuple[FormSpace, ...]
    tail_gcd: BinaryForm | None

    @property
    def is_zero(self) -> bool:
        return self.tail_gcd is None

    def component(self, i: int) -> FormSpace:
        if self.dim(i) == 0:  # dim checks the degree
            return zero_space(self.field, i)
        if i <= self.window_hi:
            return self.components[i - self.window_lo]
        return shift(self._first_above, i - self.window_hi - 1)

    @cached_property
    def _first_above(self) -> FormSpace:
        """(tail_gcd) ∩ R_{hi+1}, built once per ideal and kept off the fields;
        the higher components are the rungs of its up-ladder."""
        return principal_space(self.tail_gcd, self.window_hi + 1)

    def dim(self, i: int) -> int:
        """dim I_i read off the window or the tail degree; builds no component."""
        if i < 0:
            raise PreconditionError("ideal components live in degrees >= 0", degree=i)
        if self.is_zero or i < self.window_lo:
            return 0
        if i <= self.window_hi:
            return self.components[i - self.window_lo].dim
        return max(0, i + 1 - self.tail_gcd.degree)


def zero_ideal(field: FieldSpec) -> GradedIdeal:
    return GradedIdeal(field, 0, -1, (), None)


def _assemble_ideal(
    field: FieldSpec,
    window_lo: int,
    components,
    tail_gcd: BinaryForm | None,
) -> GradedIdeal:
    """Drop leading zero components and make the tail monic; checks nothing."""
    comps = list(components)
    lo = window_lo
    while comps and comps[0].is_zero:
        comps.pop(0)
        lo += 1
    if tail_gcd is None:
        return zero_ideal(field)
    f = monic(tail_gcd)
    if not comps:
        return GradedIdeal(field, f.degree, f.degree, (principal_space(f, f.degree),), f)
    return GradedIdeal(field, lo, lo + len(comps) - 1, tuple(comps), f)


def graded_ideal(
    field: FieldSpec,
    window_lo: int,
    components,
    tail_gcd: BinaryForm | None,
) -> GradedIdeal:
    """Validating constructor: checks degrees, R_1-closure and tail consistency."""
    comps = list(components)
    if tail_gcd is None and any(not c.is_zero for c in comps):
        raise PreconditionError("an ideal with non-zero components needs a tail gcd")
    ideal = _assemble_ideal(field, window_lo, comps, tail_gcd)
    if ideal.is_zero:
        return ideal
    lo, comps = ideal.window_lo, ideal.components
    if lo < 0:
        raise PreconditionError("ideal components live in degrees >= 0", window_lo=lo)
    if ideal.tail_gcd.field != field:
        raise PreconditionError("tail gcd field mismatch")
    for k, c in enumerate(comps):
        if c.field != field:
            raise PreconditionError("component field mismatch", degree=lo + k)
        if c.degree != lo + k:
            raise PreconditionError(
                "component degree out of place", expected=lo + k, got=c.degree
            )
    for a, b in zip(comps, comps[1:]):
        if not contained(shift(a, 1), b):
            raise PreconditionError(
                "components are not closed under multiplication", degree=a.degree
            )
    if not contained(shift(comps[-1], 1), ideal.component(ideal.window_hi + 1)):
        raise PreconditionError("window top is inconsistent with the tail gcd")
    return ideal


# ── the three ideals of a form space ──────────────────────────────────────────


def _stable_top(V: FormSpace) -> int:
    """Degree offset by which R_kV is a full principal component."""
    return max(1, V.cod - tau(V) + 2)


def _tail_of(top: FormSpace) -> BinaryForm:
    if top._principal is None:
        raise RuntimeError("ideal window ended before its components stabilized")
    return top._principal


def ancestor_ideal(V: FormSpace) -> GradedIdeal:
    """Largest ideal whose degree-j component is V: components R_{i-j}V."""
    if V.is_zero:
        return zero_ideal(V.field)
    comps = [shift(V, s) for s in range(-V.degree, _stable_top(V) + 1)]
    return _assemble_ideal(V.field, 0, comps, _tail_of(comps[-1]))


def level_ideal(V: FormSpace) -> GradedIdeal:
    """Ancestor components up to degree j, then everything."""
    j = V.degree
    if V.is_zero:
        comps = [full_space(V.field, j + 1)]
        return _assemble_ideal(V.field, j + 1, comps, unit_form(V.field))
    comps = [shift(V, s) for s in range(-j, 1)] + [full_space(V.field, j + 1)]
    return _assemble_ideal(V.field, 0, comps, unit_form(V.field))


def generated_ideal(V: FormSpace) -> GradedIdeal:
    """Smallest ideal containing V: zero below degree j."""
    if V.is_zero:
        return zero_ideal(V.field)
    comps = [shift(V, s) for s in range(_stable_top(V) + 1)]
    return _assemble_ideal(V.field, V.degree, comps, _tail_of(comps[-1]))


def ideal_from_generators(field: FieldSpec, gens) -> GradedIdeal:
    """Grow components degree by degree from a finite generator list."""
    forms = [g for g in gens if not g.is_zero]
    for g in forms:
        if g.field != field:
            raise PreconditionError("generator field mismatch")
    if not forms:
        return zero_ideal(field)
    by_degree: dict[int, list[BinaryForm]] = {}
    for g in forms:
        by_degree.setdefault(g.degree, []).append(g)
    lo = min(by_degree)
    top_gen = max(by_degree)
    comps = [span(field, lo, by_degree[lo])]
    i = lo
    cap = top_gen + comps[0].cod + 2
    while True:
        cur = comps[-1]
        g = cur._principal  # the stop test; the next up-rung reads it too
        if g is not None and i >= top_gen:
            break
        if i > cap:
            raise RuntimeError("generated ideal failed to stabilize")
        i += 1
        nxt = shift(cur, 1)
        if i in by_degree:
            nxt = space_sum(nxt, span(field, i, by_degree[i]))
        comps.append(nxt)
    return graded_ideal(field, lo, comps, g)


# ── numeric invariants ────────────────────────────────────────────────────────


def hilbert_function(I: GradedIdeal) -> OSequence:
    """H_i = dim R_i - dim I_i, returned with its eventual constant."""
    if I.is_zero:
        return oseq((), None)
    prefix = [i + 1 - I.dim(i) for i in range(I.window_hi + 1)]
    return oseq(prefix, I.tail_gcd.degree)


def generator_degrees(I: GradedIdeal) -> tuple[int, ...]:
    """Degrees of a minimal generating set: dim I_i - dim R_1·I_{i-1} per degree."""
    if I.is_zero:
        return ()
    degs: list[int] = []
    for i in range(I.window_lo, I.window_hi + 2):
        degs.extend([i] * _fresh_generators(I, i))
    return tuple(degs)


def _fresh_generators(I: GradedIdeal, i: int) -> int:
    prev = shift(I.component(i - 1), 1).dim if i >= 1 else 0
    return I.dim(i) - prev


def relation_degrees(I: GradedIdeal) -> tuple[int, ...]:
    """Degrees of the minimal first syzygies, from second differences of dim I."""
    if I.is_zero:
        return ()
    degs: list[int] = []
    for i in range(I.window_lo, I.window_hi + 3):
        d1 = I.dim(i - 1) if i >= 1 else 0
        d2 = I.dim(i - 2) if i >= 2 else 0
        rels = _fresh_generators(I, i) - (I.dim(i) - 2 * d1 + d2)
        if rels < 0:
            raise PreconditionError("negative relation count", degree=i)
        degs.extend([i] * rels)
    return tuple(degs)


def is_ancestor_ideal_of(I: GradedIdeal, j: int) -> bool:
    """True iff I is the ancestor ideal of its own degree-j component."""
    gens = generator_degrees(I)
    rels = relation_degrees(I)
    return (not gens or max(gens) <= j) and (not rels or min(rels) >= j + 2)


def nu_min(H: OSequence) -> int:
    """Least number of generators of any ideal with Hilbert function H."""
    if H.is_zero_ideal:
        return 0
    mu = H.order()
    s = H.stabilization()
    total = 1 + H.e(mu)
    for i in range(mu, s + 2):
        step = H.e(i + 1) - H.e(i)
        if step > 0:
            total += step
    return total


def same_ideal(I: GradedIdeal, J: GradedIdeal) -> bool:
    if I.field != J.field:
        return False
    if I.is_zero or J.is_zero:
        return I.is_zero and J.is_zero
    if monic(I.tail_gcd) != monic(J.tail_gcd):
        return False
    top = max(I.window_hi, J.window_hi)
    return all(I.component(i) == J.component(i) for i in range(top + 1))


# ── JSON ──────────────────────────────────────────────────────────────────────


def ideal_to_json(I: GradedIdeal) -> dict:
    return {
        "field": I.field.name,
        "window": [I.window_lo, I.window_hi],
        "components": {
            str(i): space_to_json(I.component(i))
            for i in range(I.window_lo, I.window_hi + 1)
        },
        "tailGcd": None if I.tail_gcd is None else form_to_json(I.tail_gcd),
    }


def ideal_from_json(data: dict) -> GradedIdeal:
    """Read the shape `ideal_to_json` writes; malformed input is a PreconditionError."""
    try:
        field = FieldSpec.from_name(data["field"])
        tail = None if data.get("tailGcd") is None else form_from_json(field, data["tailGcd"])
        lo, hi = (int(k) for k in data["window"])
        comps = [space_from_json(data["components"][str(i)], field) for i in range(lo, hi + 1)]
    except PreconditionError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise PreconditionError(f"bad ideal JSON: {type(exc).__name__}: {exc}") from None
    return graded_ideal(field, lo, comps, tail)

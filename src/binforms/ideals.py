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
no syzygy modules are ever built; fresh-generator counts read dim R_1I_{i-1}
as `tau` does, off a rung of I_{i-1} already built or, above the window, off
the block (tail_gcd).R_s itself.  Above degree j + 1 a window's components
are sized by V's syzygy degrees and below j each is a kernel (`spaces`): their
rows are written only when read, so H and the Betti counts build no basis.
The walk down is `shift`'s own (`spaces._rungs`): it stops at the first zero rung.
The tail gcd is read off the stable top: there the component is a principal
block f.R_s, which knows its f.

An ideal is validated once, where it enters: `graded_ideal` (fields, degrees,
R_1-closure, tail) runs in `ideal_from_json` and for direct callers.  Ideals
closed under R_1 by construction (the ladders above, `ideal_from_generators`,
`monomial_ideal`, whose components and their R_1 are unit rows read off the
exponents by `spaces.monomial_rungs`, the annihilator, the final ideals of
`closure.build_n`, `build_t` and `build_h`) go through `_assemble_ideal`,
which checks nothing; the closure walks certify each edit as they make it and
themselves assemble no ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .fields import FieldSpec
from .forms import (
    BinaryForm,
    form_from_json,
    form_to_json,
    json_int,
    monic,
)
from .osequence import OSequence, oseq
from .spaces import (
    FormSpace,
    _rungs,
    _up_dim,
    _up_rungs,
    contained,
    full_space,
    monomial_rungs,
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
        """I_i: a window component, else (above it) the block (tail_gcd).R_s, its rows unwritten."""
        if self.dim(i) == 0:  # dim checks the degree
            return zero_space(self.field, i)
        if i <= self.window_hi:
            return self.components[i - self.window_lo]
        return principal_space(self.tail_gcd, i)

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
    """Drop leading zero components and make the tail monic; checks nothing.
    With no nonzero component the ideal is zero up to the window's top and
    (tail) ∩ R_i above it, so it starts at the later of window top + 1 and deg tail."""
    comps = list(components)
    lo = window_lo
    while comps and comps[0].is_zero:
        comps.pop(0)
        lo += 1
    if tail_gcd is None:
        return zero_ideal(field)
    f = monic(tail_gcd)
    if not comps:
        m = max(lo, f.degree)
        return GradedIdeal(field, m, m, (principal_space(f, m),), f)
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
    if tail_gcd is not None and tail_gcd.is_zero:
        raise PreconditionError("the tail gcd is the zero form", degree=tail_gcd.degree)
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


def _rung_window(V: FormSpace, depth: int) -> GradedIdeal:
    """Components R_sV, s = -depth .. `_stable_top(V)` (none below a zero rung); the top one is a block f.R_k."""
    if V.is_zero:
        return zero_ideal(V.field)
    top = _stable_top(V)  # before the walk down: tau may build R_1V, which the down-step reads
    below, comps = _rungs(V, -depth)[:0:-1], _up_rungs(V, top)
    return _assemble_ideal(V.field, V.degree - len(below), below + comps, comps[-1]._principal)


def ancestor_ideal(V: FormSpace) -> GradedIdeal:
    """Largest ideal whose degree-j component is V: components R_{i-j}V."""
    return _rung_window(V, V.degree)


def level_ideal(V: FormSpace) -> GradedIdeal:
    """Ancestor components up to degree j, then everything."""
    comps = [*_rungs(V, -V.degree)[::-1], full_space(V.field, V.degree + 1)]
    return _assemble_ideal(V.field, V.degree + 2 - len(comps), comps, unit_form(V.field))


def _with_unit_tail(field: FieldSpec, comps) -> GradedIdeal:
    """The ideal with component comps[i] in each degree i < len(comps), then all of R."""
    return _assemble_ideal(field, 0, [*comps, full_space(field, len(comps))], unit_form(field))


def generated_ideal(V: FormSpace) -> GradedIdeal:
    """Smallest ideal containing V: zero below degree j."""
    return _rung_window(V, 0)


def ideal_from_generators(field: FieldSpec, gens) -> GradedIdeal:
    """The ideal (G) of a finite generator list G with top degree t.  From G's lowest degree up
    to t each component is R_1 of the one below plus the span of that degree's generators; above
    t, (G)_i = R_{i-t}(G)_t, so the rest is `generated_ideal((G)_t)`, whose window ends where its
    rungs stabilize.  Closed under R_1 by construction: only the generators' field is checked."""
    forms = [g for g in gens if not g.is_zero]
    if any(g.field != field for g in forms):
        raise PreconditionError("generator field mismatch")
    if not forms:
        return zero_ideal(field)
    by_degree: dict[int, list[BinaryForm]] = {}
    for g in forms:
        by_degree.setdefault(g.degree, []).append(g)
    lo = min(by_degree)
    grown = [span(field, lo, by_degree[lo])]
    for i in range(lo + 1, max(by_degree) + 1):
        up = shift(grown[-1], 1)
        grown.append(space_sum(up, span(field, i, by_degree[i])) if i in by_degree else up)
    top = generated_ideal(grown.pop())
    return _assemble_ideal(field, lo, grown + list(top.components), top.tail_gcd)


def monomial_ideal(field: FieldSpec, exponents) -> GradedIdeal:
    """The ideal of the monomials x^p y^q, (p, q) in exponents: `ideal_from_generators` on them, window
    included, with no elimination: each component's rows, and R_1 of each, are read off the exponents."""
    pairs = list(exponents)
    if not pairs:
        return zero_ideal(field)
    comps = monomial_rungs(field, pairs)
    return _assemble_ideal(field, comps[0].degree, comps, comps[-1]._principal)


# ── numeric invariants ────────────────────────────────────────────────────────


def hilbert_function(I: GradedIdeal) -> OSequence:
    """H_i = dim R_i - dim I_i, returned with its eventual constant."""
    if I.is_zero:
        return oseq((), None)
    prefix = [i + 1 - I.dim(i) for i in range(I.window_hi + 1)]
    return oseq(prefix, I.tail_gcd.degree)


def generator_degrees(I: GradedIdeal) -> tuple[int, ...]:
    """Degrees of a minimal generating set: dim I_i - dim R_1·I_{i-1} per degree."""
    degs: list[int] = []
    for i in range(I.window_lo, I.window_hi + 2):
        degs.extend([i] * _fresh_generators(I, i))
    return tuple(degs)


def _fresh_generators(I: GradedIdeal, i: int) -> int:
    """dim I_i - dim R_1I_{i-1}, the number of degree-i minimal generators."""
    prev = _up_dim(I.component(i - 1)) if i > I.window_lo else 0  # zero below
    return I.dim(i) - prev


def relation_degrees(I: GradedIdeal) -> tuple[int, ...]:
    """Degrees of the minimal first syzygies, from second differences of dim I."""
    degs: list[int] = []
    for i in range(I.window_lo, I.window_hi + 3):
        d1 = I.dim(i - 1) if i >= 1 else 0
        d2 = I.dim(i - 2) if i >= 2 else 0
        rels = _fresh_generators(I, i) - (I.dim(i) - 2 * d1 + d2)
        if rels < 0:  # beta_(1,i) of an ideal is >= 0 (Hilbert-Burch)
            raise RuntimeError(f"postcondition failed: relation count {rels} < 0 at degree {i}")
        degs.extend([i] * rels)
    return tuple(degs)


def is_ancestor_ideal_of(I: GradedIdeal, j: int) -> bool:
    """True iff I is the ancestor ideal of its own degree-j component."""
    return _ancestor_betti(generator_degrees(I), relation_degrees(I), j)


def _ancestor_betti(gens: tuple[int, ...], rels: tuple[int, ...], j: int) -> bool:
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
    if I.tail_gcd != J.tail_gcd:  # monic: `_assemble_ideal` makes every tail so
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
        lo, hi = (json_int(k) for k in data["window"])
        if lo < 0 or hi < lo - 1:
            raise PreconditionError("ideal window must satisfy 0 <= lo <= hi + 1", window=[lo, hi])
        comps = [space_from_json(data["components"][str(i)], field) for i in range(lo, hi + 1)]
    except PreconditionError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise PreconditionError(f"bad ideal JSON: {type(exc).__name__}: {exc}") from None
    return graded_ideal(field, lo, comps, tail)

"""Chains of up/down multiplications and the spaces they reach.

W is related to V when W = R_{i_k}...R_{i_1}V for nonzero integers i_u
(applied left-innermost).  Same-sign neighbours merge and small middle
indices collapse, so every chain has a sign-alternating normal form whose
absolute values rise strictly and then fall weakly.  For two variables
the ancestor classes reachable from V number at most 2^tau - 1, found by
recursing on the first inequivalent down- and up-shifts, each compared with
the one before it (the same step, by transitivity, for one rung per step).
For three variables mutual reachability does not force equivalence (`berman_check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .errors import PreconditionError
from .ideals import GradedIdeal, _stable_top, ancestor_ideal
from .spaces import FormSpace, equivalent, shift, tau


# ── chains ────────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class ChainSpec:
    """Shift exponents (i_1, ..., i_k), innermost first, all nonzero."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if any(type(i) is not int or i == 0 for i in self.indices):  # a bool is an int subclass
            raise PreconditionError("chain indices must be nonzero integers")

    def __len__(self) -> int:
        return len(self.indices)


def chain_spec(indices) -> ChainSpec:
    if isinstance(indices, ChainSpec):
        return indices
    return ChainSpec(tuple(indices))


def apply_chain(V: FormSpace, chain) -> FormSpace:
    """R_{i_k}...R_{i_1}V; degrees must stay non-negative at every stage."""
    out = V
    for i in chain_spec(chain).indices:
        out = shift(out, i)
    return out


def normalize_chain(chain) -> ChainSpec:
    """Shortest-known equivalent chain: merge same-sign neighbours and
    collapse triples whose middle index is dominated by both ends, until
    the signs alternate and |i_1| < ... < |i_t| >= ... >= |i_k|.  One pass pushes
    each index and rewrites the top while a rule applies (below it, none does)."""
    idx: list[int] = []
    for i in chain_spec(chain).indices:
        idx.append(i)
        while len(idx) >= 2:
            a, b, c = [0, *idx[-3:]][-3:]  # a = 0 pads a stack of two
            if b * c > 0:
                idx[-2:] = [b + c]
            elif a * c > 0 and abs(b) <= min(abs(a), abs(c)):
                idx[-3:] = [a + b + c]
            else:
                break
    for u in range(len(idx) - 1):
        if idx[u] * idx[u + 1] > 0:
            raise RuntimeError("normalized chain is not sign-alternating")
    mags = [abs(i) for i in idx]
    t = 1
    while t < len(mags) and mags[t - 1] < mags[t]:
        t += 1
    if any(mags[u] < mags[u + 1] for u in range(t - 1, len(mags) - 1)):
        raise RuntimeError("normalized chain is not rise-then-fall")
    return ChainSpec(tuple(idx))


# ── ancestor classes reachable from V ─────────────────────────────────────────


def related_classes(V: FormSpace) -> list[GradedIdeal]:
    """Distinct ancestor ideals of nonzero spaces related to V, at most
    2^tau(V) - 1 of them, in discovery order (self, down branch, up branch).
    An up-walk ends by `_stable_top(W)`: from there on R_kW is a block, with
    tau 1 < tau(W), so the first inequivalent up-shift comes at or before it."""
    if V.is_zero:
        raise PreconditionError("related classes of the zero space")
    t0 = tau(V)
    reps: list[FormSpace] = []
    ideals: list[GradedIdeal] = []

    todo = [(V, 0)]  # depth first, each down branch before its up branch
    while todo:
        W, depth = todo.pop()
        if W.is_zero or any(equivalent(W, r) for r in reps):
            continue
        reps.append(W)
        ideals.append(ancestor_ideal(W))
        tW = tau(W)
        if tW == 1:
            continue  # a principal class; every further shift stays inside it
        if depth >= t0:
            raise RuntimeError("related-class recursion exceeded its tau budget")
        down = _first_inequivalent(W, -1, W.degree)
        if down is None:
            raise RuntimeError("no inequivalent down-shift below a tau >= 2 space")
        if not down.is_zero and tau(down) >= tW:
            raise RuntimeError("tau failed to drop on the first inequivalent shift")
        up = _first_inequivalent(W, 1, _stable_top(W))
        if up is None:
            raise RuntimeError("no inequivalent up-shift within the stable range")
        if tau(up) >= tW:
            raise RuntimeError("tau failed to drop on the first inequivalent shift")
        todo += [(up, depth + 1), (down, depth + 1)]
    if len(ideals) > 2**t0 - 1:
        raise RuntimeError("related-class count exceeded 2^tau - 1")
    return ideals


def _first_inequivalent(W: FormSpace, sign: int, steps: int) -> FormSpace | None:
    """The first R_{±k}W (k <= steps) inequivalent to R_{±(k-1)}W, hence to W:
    the first whose tau differs, since R_1R_{-1}P ⊆ P and tau(P) = dim P - dim R_{-1}P."""
    out = W
    for _ in range(steps):
        prev, out = out, shift(out, sign)
        if tau(out) != tau(prev):
            return out
    return None


# ── three-variable monomial spaces ────────────────────────────────────────────


Triple = tuple[int, int, int]


@dataclass(frozen=True)
class MonomialSpace3:
    """A set of degree-j monomials in three variables, as exponent triples."""

    degree: int
    monomials: frozenset[Triple]

    def __post_init__(self):
        for m in self.monomials:
            if len(m) != 3 or any(e < 0 for e in m) or sum(m) != self.degree:
                raise PreconditionError("exponents must be non-negative and sum to the degree", monomial=m)


def mono3(degree: int, triples) -> MonomialSpace3:
    return MonomialSpace3(degree, frozenset(tuple(t) for t in triples))


def _triples(n: int) -> list[Triple]:
    out = []
    for picks in combinations_with_replacement(range(3), n):
        e = [0, 0, 0]
        for p in picks:
            e[p] += 1
        out.append(tuple(e))
    return out


def shift3(S: MonomialSpace3, s: int) -> MonomialSpace3:
    """Monomial up-shift (all multiples) or down-shift (quotients by every
    degree -s monomial), the three-variable analogue of shift()."""
    if S.degree + s < 0:
        raise PreconditionError(f"shift to negative degree {S.degree + s}")
    if s > 0:
        ups = {
            tuple(m[k] + e[k] for k in range(3))
            for m in S.monomials
            for e in _triples(s)
        }
        return MonomialSpace3(S.degree + s, frozenset(ups))
    downs = {
        m
        for m in _triples(S.degree + s)
        if all(
            tuple(m[k] + e[k] for k in range(3)) in S.monomials
            for e in _triples(-s)
        )
    }
    return MonomialSpace3(S.degree + s, frozenset(downs))


@dataclass(frozen=True)
class BermanReport:
    """Mutual relation without equivalence in three variables."""

    v: MonomialSpace3
    w: MonomialSpace3
    witness: Triple
    recovered: bool  # R_{-2}W == V, so V and W are related both ways
    witness_in_down: bool  # witness lies in R_{-1}W ...
    witness_missing_up: bool  # ... but not in R_1 V, so the classes differ

    @property
    def passed(self) -> bool:
        return self.recovered and self.witness_in_down and self.witness_missing_up


def berman_check() -> BermanReport:
    V = mono3(5, [(2, 3, 0), (0, 2, 3), (3, 0, 2)])
    W = shift3(V, 2)
    witness = (2, 2, 2)
    return BermanReport(
        v=V,
        w=W,
        witness=witness,
        recovered=shift3(W, -2) == V,
        witness_in_down=witness in shift3(W, -1).monomials,
        witness_missing_up=witness not in shift3(V, 1).monomials,
    )

"""Chains of up/down multiplications and the spaces they reach.

W is related to V when W = R_{i_k}...R_{i_1}V for nonzero integers i_u
(applied left-innermost).  Same-sign neighbours merge and small middle
indices collapse, so every chain has a sign-alternating normal form whose
absolute values rise strictly and then fall weakly.  For two variables
the ancestor classes reachable from V number at most 2^tau - 1, found by
recursing on the first inequivalent down- and up-shifts; for three
variables mutual reachability does not force equivalence, witnessed by a
classical triple of monomials in degree 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .errors import PreconditionError
from .ideals import GradedIdeal, ancestor_ideal
from .spaces import FormSpace, equivalent, shift, tau


# ── chains ────────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class ChainSpec:
    """Shift exponents (i_1, ..., i_k), innermost first, all nonzero."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if any(not isinstance(i, int) or i == 0 for i in self.indices):
            raise PreconditionError("chain indices must be nonzero integers")

    def __len__(self) -> int:
        return len(self.indices)


def chain_spec(indices) -> ChainSpec:
    if isinstance(indices, ChainSpec):
        return indices
    return ChainSpec(tuple(int(i) for i in indices))


def apply_chain(V: FormSpace, chain) -> FormSpace:
    """R_{i_k}...R_{i_1}V; degrees must stay non-negative at every stage."""
    out = V
    for i in chain_spec(chain).indices:
        out = shift(out, i)
    return out


def normalize_chain(chain) -> ChainSpec:
    """Shortest-known equivalent chain: merge same-sign neighbours and
    collapse triples whose middle index is dominated by both ends, until
    the signs alternate and |i_1| < ... < |i_t| >= ... >= |i_k|."""
    idx = list(chain_spec(chain).indices)
    changed = True
    while changed:
        changed = False
        for k in range(len(idx) - 1):
            if idx[k] * idx[k + 1] > 0:
                idx[k : k + 2] = [idx[k] + idx[k + 1]]
                changed = True
                break
        if changed:
            continue
        for k in range(len(idx) - 2):
            a, b, c = idx[k : k + 3]
            if a * c > 0 and abs(b) <= abs(a) and abs(b) <= abs(c):
                idx[k : k + 3] = [a + b + c]
                changed = True
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
    2^tau(V) - 1 of them, in discovery order (self, down branch, up branch)."""
    if V.is_zero:
        raise PreconditionError("related classes of the zero space")
    t0 = tau(V)
    reps: list[FormSpace] = []
    ideals: list[GradedIdeal] = []

    def visit(W: FormSpace, depth: int) -> None:
        if W.is_zero or any(equivalent(W, r) for r in reps):
            return
        reps.append(W)
        ideals.append(ancestor_ideal(W))
        tW = tau(W)
        if tW == 1:
            return  # a principal class; every further shift stays inside it
        if depth >= t0:
            raise RuntimeError("related-class recursion exceeded its tau budget")
        down = _first_inequivalent(W, -1, W.degree)
        if down is None:
            raise RuntimeError("no inequivalent down-shift below a tau >= 2 space")
        if not down.is_zero and tau(down) >= tW:
            raise RuntimeError("tau failed to drop on the first inequivalent shift")
        visit(down, depth + 1)
        up = _first_inequivalent(W, 1, W.cod + tW + 2)
        if up is None:
            raise RuntimeError("no inequivalent up-shift within the stable range")
        if tau(up) >= tW:
            raise RuntimeError("tau failed to drop on the first inequivalent shift")
        visit(up, depth + 1)

    visit(V, 0)
    if len(ideals) > 2**t0 - 1:
        raise RuntimeError("related-class count exceeded 2^tau - 1")
    return ideals


def _first_inequivalent(W: FormSpace, sign: int, steps: int) -> FormSpace | None:
    """The first of R_{±1}W, R_{±2}W, ... (up to `steps`) not equivalent to W."""
    out = W
    for _ in range(steps):
        out = shift(out, sign)
        if not equivalent(out, W):
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
    if s == 0:
        return S
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

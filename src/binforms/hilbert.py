"""Hilbert-function combinatorics for spaces of binary forms.

Everything here is integer arithmetic on O-sequences and partitions:
acceptability of a Hilbert function for a pair (d, j), the partitions
P, Q (difference sequence on each side of j) and their duals A, B and
paddings C, D, the ℓ-invariant, every dimension/codimension formula for
the strata (collected in a StratumReport with an explicit discrepancy
list — several printed formulas fail when the eventual constant is
positive, and the report records rather than hides that), partial orders,
exhaustive enumeration with the q-binomial count, and the staircase
monomial-ideal realization.  The Hasse diagram is a transitive reduction on
bitsets: one mask per coordinate and value, covers by a walk that skips
members already reached, edges in enumeration order (see `hasse_edges`).

Each public function taking (H, d, j) checks that H is acceptable once, on
entry; the private helpers (`_pq`, `_from_pq`, `_betti`, `_le_pq`,
`_staircase_pairs`) work on sequences or partitions known to be acceptable.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate

from .errors import PreconditionError
from .fields import FieldSpec
from .osequence import OSequence, oseq

Partition = tuple[int, ...]


# ── difference sequence and acceptability ────────────────────────────────────


def tau_of_h(H: OSequence, j: int) -> int:
    return H.e(j) + 1


def is_acceptable(H: OSequence, d: int, j: int) -> bool:
    """Is H the Hilbert function of an ancestor algebra of some V in Grass(d, R_j)?"""
    if not (1 <= d <= j + 1):
        return False
    if H.is_zero_ideal:
        return False
    if H.value(j) != j + 1 - d:
        return False
    top = max(H.stabilization(), j) + 1
    if any(not 0 <= H.value(i) <= i + 1 for i in range(top + 1)):
        return False
    E = [H.e(i) for i in range(top + 3)]
    if any(E[i] > E[i + 1] for i in range(j + 1)):
        return False
    if any(E[i] < E[i + 1] for i in range(j, top + 2)):
        return False
    return 0 <= E[j] <= min(j + 1 - d, d - 1)


def require_acceptable(H: OSequence, d: int, j: int) -> None:
    if not is_acceptable(H, d, j):
        raise PreconditionError(
            "sequence is not acceptable for these parameters", H=str(H), d=d, j=j
        )


# ── partitions ────────────────────────────────────────────────────────────────


def partitions_pq(H: OSequence, d: int, j: int) -> tuple[Partition, Partition]:
    """P = (e_j+1, …, e_µ+1) ⊢ d;  Q = (e_{j+1}, …, e_s) ⊢ j+1-d-c."""
    require_acceptable(H, d, j)
    return _pq(H, j)


def _pq(H: OSequence, j: int) -> tuple[Partition, Partition]:
    """`partitions_pq` of a sequence known to be acceptable."""
    mu = H.order()
    s = H.stabilization()
    P = tuple(H.e(i) + 1 for i in range(j, mu - 1, -1))
    Q = tuple(H.e(i) for i in range(j + 1, s + 1))
    return P, Q


def dual_partition(p: Partition) -> Partition:
    if not p:
        return ()
    return tuple(sum(1 for u in p if u >= k) for k in range(1, p[0] + 1))


def ell(p: Partition) -> int:
    """Σ over pairs u ≤ v of (p_u - p_v - 1)^+."""
    return sum(
        max(0, p[u] - p[v] - 1) for u in range(len(p)) for v in range(u, len(p))
    )


def betti_partitions(
    H: OSequence, d: int, j: int
) -> tuple[Partition, Partition, Partition, Partition]:
    """A = P*, B = Q*; C, D pad A+1̄, B+1̄ with ones up to |C| = j+2, |D| = j-c."""
    return _betti(*partitions_pq(H, d, j), d, j)


def _betti(
    P: Partition, Q: Partition, d: int, j: int
) -> tuple[Partition, Partition, Partition, Partition]:
    tau = P[0]
    A = dual_partition(P)
    B = dual_partition(Q)
    C = tuple(sorted([a + 1 for a in A] + [1] * (j + 2 - d - tau), reverse=True))
    D = tuple(sorted([b + 1 for b in B] + [1] * (d - tau), reverse=True))
    return A, B, C, D


def hilbert_from_partitions(P: Partition, Q: Partition, j: int, c: int) -> OSequence:
    """Rebuild H from its two partitions; inverse of partitions_pq."""
    if not P or any(x <= 0 for x in P + tuple(Q)) or c < 0:
        raise PreconditionError("bad partition data", P=P, Q=Q, c=c)
    if any(P[k] < P[k + 1] for k in range(len(P) - 1)) or any(
        Q[k] < Q[k + 1] for k in range(len(Q) - 1)
    ):
        raise PreconditionError("partition parts must be weakly decreasing")
    tau = P[0]
    if Q:
        if Q[0] != tau - 1:
            raise PreconditionError("largest part of Q must be τ-1", P=P, Q=Q)
    elif tau != 1:
        raise PreconditionError("Q may be empty only when τ = 1", P=P)
    if len(P) > j + 1:
        raise PreconditionError("P has more than j+1 parts", P=P, j=j)
    h = j + 1 - sum(P) - sum(Q)  # the last value `_from_pq` reaches
    if h != c:
        raise PreconditionError("partitions do not reach the requested constant", got=h, want=c)
    H = _from_pq(P, Q, j, c)
    require_acceptable(H, sum(P), j)
    return H


def _from_pq(P: Partition, Q: Partition, j: int, c: int) -> OSequence:
    """`hilbert_from_partitions` of partitions known to give an acceptable H."""
    h = j + 1 - len(P)  # µ: full up to here, then down by P_k - 1 from the last part
    values = list(range(1, h + 1))
    for p in reversed(P):
        h -= p - 1
        values.append(h)
    for q in Q:
        h -= q
        values.append(h)
    return oseq(values, c)


# ── nose and tail ─────────────────────────────────────────────────────────────


def nose_tail(H: OSequence, j: int) -> tuple[OSequence, OSequence]:
    """N agrees with H up to j then drops to 0; T is full below j then follows H."""
    s = max(H.stabilization(), j)
    N = oseq([H.value(i) for i in range(j + 1)], 0)
    T = oseq(
        [i + 1 for i in range(j)] + [H.value(i) for i in range(j, s + 1)],
        H.constant,
    )
    return N, T


def is_permissible_nose(N: OSequence, d: int, j: int) -> bool:
    if N.constant != 0 or N.value(j) != j + 1 - d:
        return False
    if any(N.value(i) != 0 for i in range(j + 1, N.stabilization() + 1)):
        return False
    if any(not 0 <= N.value(i) <= i + 1 for i in range(j + 1)):
        return False
    E = [N.e(i) for i in range(j + 1)]
    if any(E[i] > E[i + 1] for i in range(j)):
        return False
    return E[j] <= j + 1 - d


def is_permissible_tail(T: OSequence, d: int, j: int) -> bool:
    if T.constant is None or T.value(j) != j + 1 - d:
        return False
    if any(T.value(i) != i + 1 for i in range(j)):
        return False
    top = max(T.stabilization(), j) + 1
    E = [T.e(i) for i in range(top + 2)]
    if any(E[i] < E[i + 1] for i in range(j, top + 1)):
        return False
    return E[top + 1] >= 0 and E[j + 1] <= d - 1


# ── dimension and codimension formulas ───────────────────────────────────────


@dataclass(frozen=True)
class StratumReport:
    H: OSequence
    d: int
    j: int
    tau: int
    c: int
    mu: int
    P: Partition
    Q: Partition
    A: Partition
    B: Partition
    C: Partition
    D: Partition
    ambient: int
    dim_grass: int  # ground truth, dimension formula on E(H)
    dim_la: int
    dim_ga: int
    dim_grass_tau: int
    cod_grass: int
    cod_tau_grass: int
    formulas: dict
    discrepancies: tuple[str, ...]


def dims(H: OSequence, d: int, j: int) -> StratumReport:
    """All stratum dimensions plus every published codimension formula.

    The dimension sums over the difference sequence are the ground truth;
    each closed formula is compared against them and mismatches land in
    `discrepancies` (several of the formulas are only correct when the
    eventual constant vanishes)."""
    require_acceptable(H, d, j)
    P, Q = _pq(H, j)
    A, B, C, D = _betti(P, Q, d, j)
    mu = H.order()
    s = H.stabilization()
    c = H.constant
    tau = H.e(j) + 1
    E = [H.e(i) for i in range(max(s, j) + 3)]

    ambient = d * (j + 1 - d)
    dim_grass = c + sum((E[i] + 1) * E[i + 1] for i in range(mu, s + 2))
    dim_la = sum((E[i] + 1) * E[i + 1] for i in range(mu, j)) + tau * (j + 1 - d)
    dim_ga = c + sum((E[i] + 1) * E[i + 1] for i in range(j + 1, s + 2)) + d * E[j + 1]
    dim_grass_tau = tau * (j + 2 - tau) - d
    ecodtau = (d - tau) * (j + 2 - d - tau)
    if ambient - dim_grass_tau != ecodtau:
        raise RuntimeError("τ-stratum bookkeeping failed")

    # nose N = H up to j, tail T = H from j on: the sums over N_{i-1}, T_{i+1} read H
    ecod_n = sum((E[i + 1] - E[i]) * (i - H.value(i - 1)) for i in range(mu, j)) + ecodtau
    ecod_t = (
        (2 * d - 2 - j) * c
        + sum((E[i] - E[i + 1]) * H.value(i + 1) for i in range(j + 1, s + 2))
        + ecodtau
    )
    ecod_h = ecod_n + ecod_t - ecodtau

    lA, lB, lC, lD = ell(A), ell(B), ell(C), ell(D)
    formulas = {
        "codb": lA,
        "codc": lB + (d - 1) * c,
        "coda": lA + lB + (d - 1) * c,
        "code": lC,
        "codf": lD + (d - 1) * c,
        "codd": lC + lD + (d - 1) * c - ecodtau,
        "code2": lC + lB + (d - 1) * c,
        "ecodN": ecod_n,
        "ecodT": ecod_t,
        "ecodH": ecod_h,
        "ecodtau": ecodtau,
    }
    truths = {
        "codb": dim_grass_tau - dim_la,
        "codc": dim_grass_tau - dim_ga,
        "coda": dim_grass_tau - dim_grass,
        "code": ambient - dim_la,
        "codf": ambient - dim_ga,
        "codd": ambient - dim_grass,
        "code2": ambient - dim_grass,
        "ecodN": ambient - dim_la,
        "ecodT": ambient - dim_ga,
        "ecodH": ambient - dim_grass,
        "ecodtau": ecodtau,
    }
    discrepancies = tuple(
        f"{name}: formula gives {formulas[name]}, truth {truths[name]}"
        for name in formulas
        if formulas[name] != truths[name]
    )
    return StratumReport(
        H=H,
        d=d,
        j=j,
        tau=tau,
        c=c,
        mu=mu,
        P=P,
        Q=Q,
        A=A,
        B=B,
        C=C,
        D=D,
        ambient=ambient,
        dim_grass=dim_grass,
        dim_la=dim_la,
        dim_ga=dim_ga,
        dim_grass_tau=dim_grass_tau,
        cod_grass=ambient - dim_grass,
        cod_tau_grass=dim_grass_tau - dim_grass,
        formulas=formulas,
        discrepancies=discrepancies,
    )


def h_tau(d: int, j: int, tau: int) -> OSequence:
    """Hilbert function of the generic stratum with the given τ."""
    if not 1 <= tau <= min(d, j + 2 - d):
        raise PreconditionError("τ out of range", tau=tau, d=d, j=j)
    return _generic_row(d, j, tau, j + 1 - d if tau == 1 else 0)


# ── partial orders ────────────────────────────────────────────────────────────


class Cmp(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def _cmp_from_flags(ge: bool, le: bool) -> Cmp:
    if ge and le:
        return Cmp.EQUAL
    if ge:
        return Cmp.GREATER
    if le:
        return Cmp.LESS
    return Cmp.INCOMPARABLE


def le_partial(H1: OSequence, H2: OSequence, d: int, j: int) -> Cmp:
    """Specialization order: greater = smaller up to j and larger from j on."""
    require_acceptable(H1, d, j)
    require_acceptable(H2, d, j)
    top = max(H1.stabilization(), H2.stabilization(), j) + 1
    return _le_values(H1.values(top), H2.values(top), j)


def _le_values(v1: tuple[int, ...], v2: tuple[int, ...], j: int) -> Cmp:
    """`le_partial` on value vectors of equal length past both stabilizations
    (acceptable sequences are constant from there on); `_up_sets` is its bitset form."""
    lo1, lo2, hi1, hi2 = v1[: j + 1], v2[: j + 1], v1[j:], v2[j:]
    ge = all(map(operator.le, lo1, lo2)) and all(map(operator.ge, hi1, hi2))
    le = all(map(operator.ge, lo1, lo2)) and all(map(operator.le, hi1, hi2))
    return _cmp_from_flags(ge, le)


def _majorizes(p: Partition, q: Partition) -> bool:
    """p ≥ q: |p| ≥ |q| and the partial sums of p dominate those of q."""
    if sum(p) < sum(q):
        return False
    acc_p = acc_q = 0
    for k in range(max(len(p), len(q))):
        acc_p += p[k] if k < len(p) else 0
        acc_q += q[k] if k < len(q) else 0
        if acc_p < acc_q:
            return False
    return True


def majorization_le(p: Partition, q: Partition) -> Cmp:
    return _cmp_from_flags(_majorizes(p, q), _majorizes(q, p))


def le_by_partitions(H1: OSequence, H2: OSequence, d: int, j: int) -> Cmp:
    """Same order computed through (P,Q): H1 ≥ H2 iff P1 ≤ P2 and Q1 ≤ Q2."""
    return _le_pq(partitions_pq(H1, d, j), partitions_pq(H2, d, j))


def _le_pq(pq1: tuple[Partition, Partition], pq2: tuple[Partition, Partition]) -> Cmp:
    (P1, Q1), (P2, Q2) = pq1, pq2
    pc = majorization_le(P1, P2)
    qc = majorization_le(Q1, Q2)
    ge = pc in (Cmp.LESS, Cmp.EQUAL) and qc in (Cmp.LESS, Cmp.EQUAL)
    le = pc in (Cmp.GREATER, Cmp.EQUAL) and qc in (Cmp.GREATER, Cmp.EQUAL)
    return _cmp_from_flags(ge, le)


# ── enumeration and counting ─────────────────────────────────────────────────


def _parts_at_most(n: int, k: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, k), 0, -1):
        for rest in _parts_at_most(n - first, first):
            yield (first,) + rest


def partitions_exact_largest(n: int, k: int) -> list[Partition]:
    if k == 0:
        return [()] if n == 0 else []
    if k > n:
        return []
    return [(k,) + rest for rest in _parts_at_most(n - k, k)]


def _tau_c_range(d: int, j: int):
    for tau in range(min(d, j + 2 - d), 0, -1):
        if tau == 1:
            yield tau, j + 1 - d
        else:
            for c in range(0, j + 2 - d - tau + 1):
                yield tau, c


def enumerate_acceptable(d: int, j: int) -> list[OSequence]:
    """Every acceptable H for (d, j), generic strata first within each (τ, c).

    Distinct (τ, c, P, Q) give distinct H (Theorem codpartition), so each H
    is built once and sorted on the data it was built from."""
    if not 1 <= d <= j:
        raise PreconditionError("need 1 <= d <= j", d=d, j=j)
    keyed = []
    for tau, c in _tau_c_range(d, j):
        for P in partitions_exact_largest(d, tau):
            if len(P) > j + 1:
                continue
            for Q in partitions_exact_largest(j + 1 - d - c, tau - 1):
                key = (-tau, c, tuple(-x for x in P), tuple(-x for x in Q))
                keyed.append((key, _from_pq(P, Q, j, c)))
    keyed.sort(key=operator.itemgetter(0))
    return [H for _, H in keyed]


def _generic_partition(n: int, k: int) -> Partition:
    """Dominance-largest partition of n with largest part exactly k."""
    if k == 0:
        return ()
    q, r = divmod(n - k, k)
    return (k,) * (q + 1) + ((r,) if r else ())


def _generic_row(d: int, j: int, tau: int, c: int) -> OSequence:
    """The generic stratum of class (τ, c): both partitions dominance-largest."""
    P = _generic_partition(d, tau)
    Q = _generic_partition(j + 1 - d - c, tau - 1)
    return _from_pq(P, Q, j, c)


def table_rows(d: int, j: int) -> list[OSequence]:
    """One sequence per (τ, c): the generic stratum of that class."""
    return [_generic_row(d, j, tau, c) for tau, c in _tau_c_range(d, j)]


@lru_cache(maxsize=None)
def _box_partitions(a: int, b: int, n: int) -> int:
    """#partitions of n into at most b parts, each at most a (q-binomial DP)."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    if a == 0 or b == 0:
        return 0
    return _box_partitions(a, b - 1, n) + _box_partitions(a - 1, b, n - b)


def count_exact_largest(n: int, k: int) -> int:
    """p_k(n): partitions of n with largest part exactly k."""
    if k == 0:
        return 1 if n == 0 else 0
    if n < k:
        return 0
    return _box_partitions(k, n - k, n - k)


def count_by_tau(d: int, j: int, tau: int, c: int) -> int:
    if not 1 <= tau <= min(d, j + 2 - d):
        return 0
    if tau == 1:
        return 1 if c == j + 1 - d else 0
    if not 0 <= c <= j + 2 - d - tau:
        return 0
    return count_exact_largest(d, tau) * count_exact_largest(j + 1 - d - c, tau - 1)


# ── staircase realization ─────────────────────────────────────────────────────


def staircase_exponents(H: OSequence, d: int, j: int) -> list[tuple[int, int]]:
    """Monomial exponents (p_u, q_u) realizing H, from the Betti partitions."""
    A, B, _, _ = betti_partitions(H, d, j)
    return _staircase_pairs(A, B, j)


def _staircase_pairs(A: Partition, B: Partition, j: int) -> list[tuple[int, int]]:
    gens = [j + 1 - a for a in A]
    rels = [j + 1 + b for b in B]
    pairs = []
    p, q = gens[0], 0
    pairs.append((p, q))
    for u in range(1, len(gens)):
        q = rels[u - 1] - p
        p = gens[u] - q
        pairs.append((p, q))
    return pairs


def realize_staircase(H: OSequence, d: int, j: int, field: FieldSpec):
    """A monomial ideal I with H(R/I) = H, plus its degree-j component."""
    from .forms import monomial
    from .ideals import (
        generator_degrees,
        hilbert_function,
        ideal_from_generators,
        is_ancestor_ideal_of,
        relation_degrees,
    )

    A, B, _, _ = betti_partitions(H, d, j)
    gens = [monomial(field, p, q) for p, q in _staircase_pairs(A, B, j)]
    ideal = ideal_from_generators(field, gens)
    want_gens = tuple(sorted(j + 1 - a for a in A))
    want_rels = tuple(sorted(j + 1 + b for b in B))
    if hilbert_function(ideal) != H:
        raise RuntimeError("staircase realization missed the Hilbert function")
    if generator_degrees(ideal) != want_gens or relation_degrees(ideal) != want_rels:
        raise RuntimeError("staircase realization has wrong Betti degrees")
    if not is_ancestor_ideal_of(ideal, j):
        raise RuntimeError("staircase realization is not an ancestor ideal")
    return ideal.component(j), ideal


# ── Hasse diagram ─────────────────────────────────────────────────────────────


def hasse_edges(d: int, j: int) -> list[tuple[OSequence, OSequence]]:
    """Covering pairs (more general, more special) of the specialization order.

    Aho–Garey–Ullman reduction on n-bit ints.  The up-set of a is an AND of
    masks, one per coordinate (`_up_sets`: O(n·L) ANDs for L values); its
    covers are its members in no member's up-set (`_cover_pairs`).  The walk
    skips a member m once an ORed up[m'] holds it, as then up[m] ⊆ up[m']: at
    most one OR per member not skipped, and in enumeration order, a linear
    extension, one per cover.  Edges come out by source, then target, in bit
    order, which is the enumeration order the pairwise scan used.  Each edge
    is re-checked through the partition route, on partitions read once per
    sequence (criterion 8 compares the routes on every pair)."""
    return _hasse_edges(enumerate_acceptable(d, j), j)


def _hasse_edges(seqs: list[OSequence], j: int) -> list[tuple[OSequence, OSequence]]:
    top = max(j, *(H.stabilization() for H in seqs)) + 1
    up = _up_sets([H.values(top) for H in seqs], j)
    edges = [(seqs[a], seqs[b]) for a, b in _cover_pairs(up)]
    pq = {H: _pq(H, j) for H in seqs}
    for a, b in edges:
        via = _le_pq(pq[a], pq[b])
        if via is not Cmp.LESS:
            raise RuntimeError(
                f"hasse_edges postcondition: edge {a} -> {b} compares {via.value} "
                "through the partitions"
            )
    return edges


def _up_sets(vals: list[tuple[int, ...]], j: int) -> list[int]:
    """up[a] has bit b iff `_le_values(vals[a], vals[b], j)` is LESS (distinct
    vectors): per coordinate, indices grouped by value and ORed cumulatively,
    ascending for i ≤ j, descending for i ≥ j, both at i = j."""
    up = [((1 << len(vals)) - 1) ^ (1 << a) for a in range(len(vals))]
    for i in range(len(vals[0])):
        column = [v[i] for v in vals]
        ascending = sorted(set(column))
        groups = dict.fromkeys(ascending, 0)
        for b, x in enumerate(column):
            groups[x] |= 1 << b
        for keys in [ascending] * (i <= j) + [ascending[::-1]] * (i >= j):
            within = dict(zip(keys, accumulate((groups[x] for x in keys), operator.or_)))
            up = [u & within[x] for u, x in zip(up, column)]
    return up


def _cover_pairs(up: list[int]):
    """(a, b) for b in up[a] and in no up[m] with m in up[a], b ascending."""
    for a, members in enumerate(up):
        reach, rest = 0, members
        while rest:
            low = rest & -rest
            reach |= up[low.bit_length() - 1]
            rest = (rest ^ low) & ~reach
        covers = members & ~reach
        while covers:
            low = covers & -covers
            yield a, low.bit_length() - 1
            covers ^= low

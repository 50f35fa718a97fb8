"""Hilbert-function combinatorics for spaces of binary forms.

Everything here is integer arithmetic on O-sequences and partitions:
acceptability of a Hilbert function for a pair (d, j), the partitions
P, Q (difference sequence on each side of j) and their duals A, B and
paddings C, D, the ℓ-invariant, every dimension/codimension formula for
the strata (collected in a StratumReport with an explicit discrepancy
list — several printed formulas fail when the eventual constant is
positive, and the report records rather than hides that), the
specialization order, exhaustive enumeration (every enumeration checks each
(τ, c) class's size against its closed partition count `count_by_tau`), and
the staircase monomial-ideal realization.  The order has two routes: a pair
of sequences is compared through its partitions (`le_partial`), the Hasse
diagram termwise, as a transitive reduction on bitsets: one mask per
coordinate and value, covers by a walk that skips members already reached,
edges in enumeration order (see `hasse_edges`).

Acceptability is decided once, by the partition round trip in `_acceptable_pq`,
for all three algebras of V: it admits H, the nose and the tail by Q's largest
part against τ - 1 with `=`, `>=` and `<=`.  The private helpers (`_pq`, `_from_pq`,
`_betti`, `_le_pq`, `_staircase_pairs`) work on sequences or partitions known to be acceptable.
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
    """Is H the Hilbert function of an ancestor algebra of some V in Grass(d, R_j)?

    Decided by the partition round trip: 1 <= d <= j+1, H is not the zero-ideal
    sequence, H_j = j+1-d (that is, |P| = d), and its (P, Q, c) pass `_refusal` and rebuild H."""
    return _acceptable_pq(H, d, j) is not None


def _acceptable_pq(H: OSequence, d: int, j: int, tie=operator.eq) -> tuple[Partition, Partition] | None:
    """H's (P, Q) if it `is_acceptable`, else None; `tie` goes to `_refusal`, to admit noses or tails."""
    if not 1 <= d <= j + 1 or H.is_zero_ideal or H.value(j) != j + 1 - d:  # |P| = j+1-H_j
        return None
    P, Q = _pq(H, j)
    c = H.constant
    ok = _refusal(P, Q, j, c, tie) is None and _from_pq(P, Q, j, c) == H
    return (P, Q) if ok else None


# ── partitions ────────────────────────────────────────────────────────────────


def partitions_pq(H: OSequence, d: int, j: int) -> tuple[Partition, Partition]:
    """P = (e_j+1, …, e_µ+1) ⊢ d;  Q = (e_{j+1}, …, e_s) ⊢ j+1-d-c.  Refuses H
    unless it `is_acceptable`."""
    if (pq := _acceptable_pq(H, d, j)) is None:
        raise PreconditionError(
            "sequence is not acceptable for these parameters", H=str(H), d=d, j=j
        )
    return pq


def _pq(H: OSequence, j: int) -> tuple[Partition, Partition]:
    """(P, Q) read off the difference sequence of any H but the zero ideal's."""
    s = H.stabilization()
    h = (0,) + H.values(max(s, j))  # h[i] = H_{i-1}
    E = tuple(map(operator.sub, h, h[1:]))  # E[i] = e_i
    return tuple(e + 1 for e in reversed(E[H.order() : j + 1])), E[j + 1 : s + 1]


def _refusal(P: Partition, Q: Partition, j: int, c: int, tie=operator.eq) -> str | None:
    """The message of the first condition of `hilbert_from_partitions` that
    (P, Q, c) fails, or None.  The τ coupling holds when tie(Q's largest part
    or 0, τ - 1): `=` for H, relaxed to `>=` for a nose and `<=` for a tail."""
    if not P or any(x <= 0 for x in P + tuple(Q)) or c < 0:
        return "bad partition data"
    if any(p[k] < p[k + 1] for p in (P, Q) for k in range(len(p) - 1)):
        return "partition parts must be weakly decreasing"
    if not tie(Q[0] if Q else 0, P[0] - 1):
        return "largest part of Q must be τ-1" if Q else "Q may be empty only when τ = 1"
    if len(P) > j + 1:
        return "P has more than j+1 parts"
    if j + 1 - sum(P) - sum(Q) != c:
        return "partitions do not reach the requested constant"
    return None


def dual_partition(p: Partition) -> Partition:
    """A_k = #{parts >= k}, which is n for p_{n+1} < k <= p_n: one walk from the last part."""
    out, below = [], 0
    for n in range(len(p), 0, -1):
        out += [n] * (p[n - 1] - below)
        below = p[n - 1]
    return tuple(out)


def ell(p: Partition) -> int:
    """Σ over pairs u ≤ v of (p_u - p_v - 1)^+, in one pass up the parts:
    a part v adds (v-1)·count - sum over the `count` parts ≤ v-2."""
    up = p[::-1]
    total = count = below = 0
    for v in up:
        while up[count] <= v - 2:  # stops at v itself at the latest
            below += up[count]
            count += 1
        total += (v - 1) * count - below
    return total


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
    # A and B descend and every a + 1 >= 2, so the ones pad at the end
    C = tuple(a + 1 for a in A) + (1,) * (j + 2 - d - tau)
    D = tuple(b + 1 for b in B) + (1,) * (d - tau)
    return A, B, C, D


def hilbert_from_partitions(P: Partition, Q: Partition, j: int, c: int) -> OSequence:
    """Rebuild H from its two partitions; inverse of partitions_pq.  Theorem
    codpartition: (P, Q, c) give an acceptable H iff P, Q are partitions, P has
    1..j+1 parts, Q[0] = τ-1 for τ = P[0] (Q empty only when τ = 1), c >= 0
    and |P| + |Q| + c = j+1; other data are refused (`_refusal`)."""
    message = _refusal(P, Q, j, c)
    if message is not None:
        raise PreconditionError(message, P=P, Q=Q, j=j, c=c)
    return _from_pq(P, Q, j, c)


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
    h = H.values(max(H.stabilization(), j))
    return oseq(h[: j + 1], 0), oseq(tuple(range(1, j + 1)) + h[j:], H.constant)


def is_permissible_nose(N: OSequence, d: int, j: int) -> bool:
    """N = H(LA(V)), V in Grass(d, R_j): zero past j, Q = (j+1-d) >= τ - 1 (Q = () when d = j+1)."""
    if d == 0:  # the zero space's nose 1, 2, …, j+1 (0): τ = 0 has no partitions
        return N.constant == 0 and N.prefix == tuple(range(1, j + 2))
    return N.constant == 0 and N.stabilization() <= j + 1 and _acceptable_pq(N, d, j, operator.ge) is not None


def is_permissible_tail(T: OSequence, d: int, j: int) -> bool:
    """T = H(R/(V)), V in Grass(d, R_j): full below j, P = (d), Q's largest part <= τ - 1."""
    pq = _acceptable_pq(T, d, j, operator.le)
    return pq is not None and len(pq[0]) == 1


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
    eventual constant vanishes).  The τ-stratum identity ambient - dim τ-stratum
    = (d - τ)(j + 2 - d - τ) is checked there too, as the "ecodtau" entry."""
    P, Q = partitions_pq(H, d, j)
    A, B, C, D = _betti(P, Q, d, j)
    mu, tau = j + 1 - len(P), P[0]
    s, c = H.stabilization(), H.constant
    h = (0,) + H.values(max(s, j) + 2)  # h[i] = H_{i-1}
    E = tuple(map(operator.sub, h, h[1:]))  # E[i] = e_i
    W = tuple(map(operator.mul, [e + 1 for e in E], E[1:]))  # W[i] = (E_i + 1) E_{i+1}

    ambient = d * (j + 1 - d)
    dim_grass = c + sum(W[mu : s + 2])
    dim_la = sum(W[mu:j]) + tau * (j + 1 - d)
    dim_ga = c + sum(W[j + 1 : s + 2]) + d * E[j + 1]
    dim_grass_tau = tau * (j + 2 - tau) - d
    ecodtau = (d - tau) * (j + 2 - d - tau)

    # nose N = H up to j, tail T = H from j on: the sums over N_{i-1}, T_{i+1} read H
    ecod_n = sum((E[i + 1] - E[i]) * (i - h[i]) for i in range(mu, j)) + ecodtau
    ecod_t = (2 * d - 2 - j) * c + sum((E[i] - E[i + 1]) * h[i + 2] for i in range(j + 1, s + 2)) + ecodtau
    ecod_h = ecod_n + ecod_t - ecodtau

    lA, lB, lC, lD = ell(A), ell(B), ell(C), ell(D)
    ledger = {  # name: (published formula, the dimension count it must equal)
        "codb": (lA, dim_grass_tau - dim_la),
        "codc": (lB + (d - 1) * c, dim_grass_tau - dim_ga),
        "coda": (lA + lB + (d - 1) * c, dim_grass_tau - dim_grass),
        "code": (lC, ambient - dim_la),
        "codf": (lD + (d - 1) * c, ambient - dim_ga),
        "codd": (lC + lD + (d - 1) * c - ecodtau, ambient - dim_grass),
        "code2": (lC + lB + (d - 1) * c, ambient - dim_grass),
        "ecodN": (ecod_n, ambient - dim_la),
        "ecodT": (ecod_t, ambient - dim_ga),
        "ecodH": (ecod_h, ambient - dim_grass),
        "ecodtau": (ecodtau, ambient - dim_grass_tau),
    }
    formulas = {name: formula for name, (formula, _) in ledger.items()}
    discrepancies = tuple(
        f"{name}: formula gives {formula}, truth {truth}"
        for name, (formula, truth) in ledger.items()
        if formula != truth
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
    """Specialization order: greater = smaller up to j and larger from j on.

    Compared through the partitions that validate both arguments (Theorem
    codpartition): H1 >= H2 iff P1 <= P2 and Q1 <= Q2 by majorization.
    `_up_sets` is the termwise form that `hasse_edges` runs."""
    return _le_pq(partitions_pq(H1, d, j), partitions_pq(H2, d, j))


def _majorizes(p: Partition, q: Partition) -> bool:
    """p ≥ q: |p| ≥ |q| and the partial sums of p dominate those of q (past the shorter
    partition they do if |p| ≥ |q|, as every part is positive)."""
    return sum(p) >= sum(q) and all(map(operator.ge, accumulate(p), accumulate(q)))


def _le_pq(pq1: tuple[Partition, Partition], pq2: tuple[Partition, Partition]) -> Cmp:
    (P1, Q1), (P2, Q2) = pq1, pq2
    ge = _majorizes(P2, P1) and _majorizes(Q2, Q1)
    le = _majorizes(P1, P2) and _majorizes(Q1, Q2)
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
    return [(k,) + rest for rest in _parts_at_most(n - k, k)]


def _tau_c_range(d: int, j: int):
    """The (τ, c) classes of (d, j), τ descending and c ascending; a class the
    closed count `count_by_tau` leaves empty is refused."""
    for tau in range(min(d, j + 2 - d), 0, -1):
        for c in [j + 1 - d] if tau == 1 else range(j + 3 - d - tau):
            if count_by_tau(d, j, tau, c) < 1:
                raise RuntimeError(f"class listed with no sequence at (tau,c)=({tau},{c})")
            yield tau, c


def enumerate_acceptable(d: int, j: int) -> list[OSequence]:
    """Every acceptable H for (d, j), generic strata first within each (τ, c).

    Distinct (τ, c, P, Q) give distinct H (Theorem codpartition), so each H
    is built once, in the order of the keys (-τ, c, -P, -Q): `_tau_c_range`
    yields τ descending and c ascending, `_parts_at_most` the partitions of n
    lexicographically descending.  Each class's size is checked against
    `count_by_tau`."""
    return [H for H, _ in _enumerate_pq(d, j)]


def _enumerate_pq(d: int, j: int) -> list[tuple[OSequence, tuple[Partition, Partition]]]:
    """`enumerate_acceptable` with each H's (P, Q), the partitions it was built from."""
    if not 1 <= d <= j:
        raise PreconditionError("need 1 <= d <= j", d=d, j=j)
    out = []
    for tau, c in _tau_c_range(d, j):
        Ps = partitions_exact_largest(d, tau)
        Qs = partitions_exact_largest(j + 1 - d - c, tau - 1)
        if len(Ps) * len(Qs) != count_by_tau(d, j, tau, c):
            raise RuntimeError(f"count formula disagrees at (tau,c)=({tau},{c})")
        out += [(_from_pq(P, Q, j, c), (P, Q)) for P in Ps for Q in Qs]
    return out


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
    if not 1 <= d <= j:
        raise PreconditionError("need 1 <= d <= j", d=d, j=j)
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
    """p_k(n): partitions of n with largest part exactly k.  The base cases of
    `_box_partitions` give 0 for n < k and [n = 0] for k = 0."""
    return _box_partitions(k, n - k, n - k)


def count_by_tau(d: int, j: int, tau: int, c: int) -> int:
    if not 1 <= tau <= min(d, j + 2 - d):
        return 0
    if not 0 <= c <= j + 2 - d - tau:
        return 0
    return count_exact_largest(d, tau) * count_exact_largest(j + 1 - d - c, tau - 1)


# ── staircase realization ─────────────────────────────────────────────────────


def _staircase_pairs(A: Partition, B: Partition, j: int) -> list[tuple[int, int]]:
    """Exponents (p_u, q_u) of the monomial generators whose Betti partitions are A, B."""
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
    """A monomial ideal I with H(R/I) = H, plus its degree-j component; `ideals.monomial_ideal`
    builds I and each component's R_1 in closed form, with no elimination."""
    from .ideals import generator_degrees, hilbert_function, monomial_ideal, relation_degrees

    A, B, _, _ = betti_partitions(H, d, j)
    ideal = monomial_ideal(field, _staircase_pairs(A, B, j))
    want_gens = tuple(sorted(j + 1 - a for a in A))
    want_rels = tuple(sorted(j + 1 + b for b in B))
    if hilbert_function(ideal) != H:
        raise RuntimeError("staircase realization missed the Hilbert function")
    # every part of A and B is >= 1, so these degrees are <= j and >= j + 2: an ancestor ideal's
    if generator_degrees(ideal) != want_gens or relation_degrees(ideal) != want_rels:
        raise RuntimeError("staircase realization has wrong Betti degrees")
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
    is re-checked through the partitions `le_partial` compares, those each
    sequence was built from (criterion 8 compares the bitsets against them on
    every pair)."""
    return _hasse_edges(_enumerate_pq(d, j), j)


def _hasse_edges(
    pairs: list[tuple[OSequence, tuple[Partition, Partition]]], j: int
) -> list[tuple[OSequence, OSequence]]:
    """`hasse_edges` on `_enumerate_pq`'s (H, (P, Q)) pairs."""
    seqs = [H for H, _ in pairs]
    edges = []
    for a, b in _cover_pairs(_up_sets(seqs, j)):
        via = _le_pq(pairs[a][1], pairs[b][1])
        if via is not Cmp.LESS:
            raise RuntimeError(
                f"hasse_edges postcondition: edge {seqs[a]} -> {seqs[b]} compares {via.value} "
                "through the partitions"
            )
        edges.append((seqs[a], seqs[b]))
    return edges


def _up_sets(seqs: list[OSequence], j: int) -> list[int]:
    """up[a] has bit b iff `le_partial(seqs[a], seqs[b], d, j)` is LESS, for
    distinct acceptable sequences, compared termwise up to past every
    stabilization: per coordinate, indices grouped by value and ORed
    cumulatively, ascending for i ≤ j, descending for i ≥ j, both at i = j."""
    top = max(j, *(H.stabilization() for H in seqs)) + 1
    vals = [H.values(top) for H in seqs]
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

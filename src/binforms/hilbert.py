"""Hilbert-function combinatorics for spaces of binary forms.

Everything here is integer arithmetic on O-sequences and partitions:
acceptability of a Hilbert function for a pair (d, j), the partitions
P, Q (difference sequence on each side of j) and their duals A, B and
paddings C, D, the ℓ-invariant, every dimension/codimension formula for
the strata (collected in a StratumReport with an explicit discrepancy
list — several printed formulas fail when the eventual constant is
positive, and the report records rather than hides that), partial orders,
exhaustive enumeration with the q-binomial count, and the staircase
monomial-ideal realization.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

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
    P, Q = partitions_pq(H, d, j)
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
    d = sum(P)
    mu = j + 1 - len(P)
    if mu < 0:
        raise PreconditionError("P has more than j+1 parts", P=P, j=j)
    values = [i + 1 for i in range(mu)]
    h = mu
    for i in range(mu, j + 1):
        h -= P[j - i] - 1
        values.append(h)
    for q in Q:
        h -= q
        values.append(h)
    if h != c:
        raise PreconditionError(
            "partitions do not reach the requested constant", got=h, want=c
        )
    H = oseq(values, c)
    require_acceptable(H, d, j)
    return H


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
    P, Q = partitions_pq(H, d, j)
    A, B, C, D = betti_partitions(H, d, j)
    mu = H.order()
    s = H.stabilization()
    c = H.constant
    tau = H.e(j) + 1
    E = [H.e(i) for i in range(max(s, j) + 3)]
    N, T = nose_tail(H, j)

    ambient = d * (j + 1 - d)
    dim_grass = c + sum((E[i] + 1) * E[i + 1] for i in range(mu, s + 2))
    dim_la = sum((E[i] + 1) * E[i + 1] for i in range(mu, j)) + tau * (j + 1 - d)
    dim_ga = c + sum((E[i] + 1) * E[i + 1] for i in range(j + 1, s + 2)) + d * E[j + 1]
    dim_grass_tau = tau * (j + 2 - tau) - d
    ecodtau = (d - tau) * (j + 2 - d - tau)
    if ambient - dim_grass_tau != ecodtau:
        raise RuntimeError("τ-stratum bookkeeping failed")

    ecod_n = sum(
        (E[i + 1] - E[i]) * (i - N.value(i - 1)) for i in range(mu, j)
    ) + ecodtau
    ecod_t = (
        (2 * d - 2 - j) * c
        + sum((E[i] - E[i + 1]) * T.value(i + 1) for i in range(j + 1, s + 2))
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
    a = j + 1 - d
    values = [min(i + 1, a + (tau - 1) * (j - i)) for i in range(j + 1)]
    i = j + 1
    while True:
        v = max(0, a - (tau - 1) * (i - j))
        values.append(v)
        if v == 0 or tau == 1:
            break
        i += 1
    constant = a if tau == 1 else 0
    return oseq(values, constant)


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
    ge = all(H1.value(i) <= H2.value(i) for i in range(j + 1)) and all(
        H1.value(i) >= H2.value(i) for i in range(j, top + 1)
    )
    le = all(H2.value(i) <= H1.value(i) for i in range(j + 1)) and all(
        H2.value(i) >= H1.value(i) for i in range(j, top + 1)
    )
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
    P1, Q1 = partitions_pq(H1, d, j)
    P2, Q2 = partitions_pq(H2, d, j)
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
    """Every acceptable H for (d, j), generic strata first within each (τ, c)."""
    if not 1 <= d <= j:
        raise PreconditionError("need 1 <= d <= j", d=d, j=j)
    out = []
    seen = set()
    for tau, c in _tau_c_range(d, j):
        for P in partitions_exact_largest(d, tau):
            if len(P) > j + 1:
                continue
            for Q in partitions_exact_largest(j + 1 - d - c, tau - 1):
                H = hilbert_from_partitions(P, Q, j, c)
                if H not in seen:
                    seen.add(H)
                    out.append(H)
    out.sort(
        key=lambda H: (
            -(H.e(j) + 1),
            H.constant,
            tuple(-x for x in partitions_pq(H, d, j)[0]),
            tuple(-x for x in partitions_pq(H, d, j)[1]),
        )
    )
    return out


def _generic_partition(n: int, k: int) -> Partition:
    """Dominance-largest partition of n with largest part exactly k."""
    if k == 0:
        return ()
    q, r = divmod(n - k, k)
    return (k,) * (q + 1) + ((r,) if r else ())


def table_rows(d: int, j: int) -> list[OSequence]:
    """One sequence per (τ, c): the generic stratum of that class."""
    rows = []
    for tau, c in _tau_c_range(d, j):
        P = _generic_partition(d, tau)
        Q = _generic_partition(j + 1 - d - c, tau - 1)
        rows.append(hilbert_from_partitions(P, Q, j, c))
    return rows


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

    pairs = staircase_exponents(H, d, j)
    gens = [monomial(field, p, q) for p, q in pairs]
    ideal = ideal_from_generators(field, gens)
    A, B, _, _ = betti_partitions(H, d, j)
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

    The relation comes from `le_partial` alone; each emitted edge is then
    re-checked through the partition route (criterion 8 compares the two
    routes on every pair)."""
    seqs = enumerate_acceptable(d, j)
    above = {a: [b for b in seqs if le_partial(a, b, d, j) is Cmp.LESS] for a in seqs}
    above_set = {a: set(bs) for a, bs in above.items()}
    edges = [
        (a, b)
        for a in seqs
        for b in above[a]
        if not any(b in above_set[m] for m in above[a])
    ]
    for a, b in edges:
        via = le_by_partitions(a, b, d, j)
        if via is not Cmp.LESS:
            raise RuntimeError(
                f"hasse_edges postcondition: edge {a} -> {b} compares {via.value} "
                "through the partitions"
            )
    return edges

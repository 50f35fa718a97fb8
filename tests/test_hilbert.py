"""Hilbert-function combinatorics: acceptability, partitions, strata, orders."""

import pytest
from hypothesis import given, settings, strategies as st

from binforms.fields import GF, QQ
from binforms.errors import PreconditionError
from binforms.hilbert import (
    Cmp,
    _cover_pairs,
    _le_values,
    _up_sets,
    betti_partitions,
    count_by_tau,
    count_exact_largest,
    dims,
    dual_partition,
    ell,
    enumerate_acceptable,
    h_tau,
    hasse_edges,
    hilbert_from_partitions,
    is_acceptable,
    is_permissible_nose,
    is_permissible_tail,
    le_by_partitions,
    le_partial,
    majorization_le,
    nose_tail,
    partitions_exact_largest,
    partitions_pq,
    realize_staircase,
    staircase_exponents,
    table_rows,
    tau_of_h,
)
from binforms.ideals import (
    generator_degrees,
    hilbert_function,
    nu_min,
    relation_degrees,
)
from binforms.osequence import oseq, parse_oseq
from oracles import (
    brute_force_covers,
    count_partitions_largest,
    join_nose_tail,
    oracle_enumerate_acceptable,
    oracle_h_tau,
    oracle_hasse_edges,
    partitions_of,
)


# ── frozen worked examples ───────────────────────────────────────────────────


def test_diff_worked_example():
    H = oseq([1, 2, 3, 3, 2, 1, 0], 0)
    assert tuple(H.e(i) for i in range(H.stabilization() + 1)) == (-1, -1, -1, 0, 1, 1, 1)
    assert tau_of_h(H, 4) == 2


def test_diff_constant_one():
    H = oseq([1], 1)
    assert all(H.e(i) == 0 for i in range(1, 6))
    assert H.e(0) == -1


def test_acceptable_basics():
    assert is_acceptable(parse_oseq("1,2,3,4,3,2,1(0)"), 4, 5)
    assert is_acceptable(parse_oseq("1(2)"), 4, 5)
    # wrong value at j
    assert not is_acceptable(parse_oseq("1,2,3,4,3,2,1(0)"), 3, 5)
    # difference sequence dips then rises across j: not allowed
    assert not is_acceptable(parse_oseq("1,2,3,2,3,2,0(0)"), 4, 5)
    # e_j too large for d
    assert not is_acceptable(parse_oseq("1,1(0)"), 1, 1)
    assert is_acceptable(parse_oseq("1(1)"), 1, 1)


def test_table_4_5_rows():
    rows = table_rows(4, 5)
    assert [str(H) for H in rows] == [
        "1,2,3,4,4,2(0)",
        "1,2,3,4,3,2,1(0)",
        "1,2,3,4,3,2(1)",
        "1(2)",
    ]
    got = [
        (r.tau, r.c, r.A, r.B, r.P, r.Q, r.dim_grass, r.cod_grass)
        for r in (dims(H, 4, 5) for H in rows)
    ]
    assert got == [
        (3, 0, (2, 1, 1), (1, 1), (3, 1), (2,), 8, 0),
        (2, 0, (2, 2), (2,), (2, 2), (1, 1), 6, 2),
        (2, 1, (2, 2), (1,), (2, 2), (1,), 5, 3),
        (1, 2, (4,), (), (1, 1, 1, 1), (), 2, 6),
    ]


def test_enumerate_4_5_is_bigger_than_table():
    # the (τ=2) classes each contain a second, non-generic sequence
    seqs = enumerate_acceptable(4, 5)
    assert len(seqs) == 6
    names = {str(H) for H in seqs}
    assert "1,2,3,3,3,2,1(0)" in names
    assert "1,2,3,3,3,2(1)" in names
    assert count_by_tau(4, 5, 2, 0) == 2
    assert count_by_tau(4, 5, 3, 0) == 1
    assert count_by_tau(4, 5, 1, 2) == 1


def test_9_14_worked_example():
    H = oseq([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 11, 9, 6, 3, 0], 0)
    r = dims(H, 9, 14)
    assert r.tau == 4 and r.c == 0
    assert r.P == (4, 3, 2) and r.A == (3, 3, 2, 1)
    assert ell(r.A) == 2
    assert r.Q == (3, 3) and r.B == (2, 2, 2)
    assert tuple(sorted(15 - a for a in r.A)) == (12, 12, 13, 14)
    assert tuple(sorted(15 + b for b in r.B)) == (17, 17, 17)
    assert r.C == (4, 4, 3, 2, 1, 1, 1) and ell(r.C) == 17
    assert r.ambient == 54 and r.dim_grass_tau == 39
    assert r.dim_grass == 37 and r.cod_grass == 17 and r.cod_tau_grass == 2
    assert r.discrepancies == ()


def test_9_14_companion():
    # same nose, tail ending in eventual constant 1: the partition-based
    # codimension formula overshoots (12 vs 7) and the truth is dim 32
    H = oseq([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 11, 9, 6, 3, 2, 1], 1)
    r = dims(H, 9, 14)
    assert r.c == 1 and r.tau == 4
    assert r.Q == (3, 1, 1) and r.B == (3, 1, 1)
    assert r.dim_grass == 32
    assert r.cod_tau_grass == 7
    assert r.formulas["coda"] == 12
    assert any(s.startswith("coda:") for s in r.discrepancies)


def test_h_tau_examples():
    assert str(h_tau(4, 5, 2)) == "1,2,3,4,3,2,1(0)"
    assert str(h_tau(4, 5, 3)) == "1,2,3,4,4,2(0)"
    assert str(h_tau(4, 5, 1)) == "1(2)"
    with pytest.raises(PreconditionError):
        h_tau(4, 5, 4)


@pytest.mark.parametrize("j", range(16))
def test_h_tau_matches_closed_form(j):
    for d in range(1, j + 2):
        for tau in range(1, min(d, j + 2 - d) + 1):
            assert h_tau(d, j, tau) == oracle_h_tau(d, j, tau), (d, j, tau)
        for tau in (0, min(d, j + 2 - d) + 1):
            with pytest.raises(PreconditionError):
                h_tau(d, j, tau)


@pytest.mark.parametrize("j", range(1, 13))
def test_enumeration_matches_validating_oracle(j):
    for d in range(1, j + 1):
        assert enumerate_acceptable(d, j) == oracle_enumerate_acceptable(d, j), (d, j)


@pytest.mark.parametrize("j", range(1, 10))
def test_expected_codimensions_read_nose_and_tail(j):
    # dims reads H where the published sums read the nose N and the tail T
    for d in range(1, j + 1):
        for H in enumerate_acceptable(d, j):
            N, T = nose_tail(H, j)
            E = [H.e(i) for i in range(max(H.stabilization(), j) + 3)]
            mu, s, c = H.order(), H.stabilization(), H.constant
            ecodtau = (d - tau_of_h(H, j)) * (j + 2 - d - tau_of_h(H, j))
            ecod_n = ecodtau + sum(
                (E[i + 1] - E[i]) * (i - N.value(i - 1)) for i in range(mu, j))
            ecod_t = ecodtau + (2 * d - 2 - j) * c + sum(
                (E[i] - E[i + 1]) * T.value(i + 1) for i in range(j + 1, s + 2))
            formulas = dims(H, d, j).formulas
            assert (formulas["ecodN"], formulas["ecodT"]) == (ecod_n, ecod_t), str(H)


def test_partition_helpers():
    assert dual_partition((3, 1)) == (2, 1, 1)
    assert dual_partition(()) == ()
    assert ell((4, 4, 3, 2, 1, 1, 1)) == 17
    assert ell((3, 3, 2, 1)) == 2
    assert ell((2,)) == 0
    assert ell(()) == 0


def test_nose_tail_table_row():
    H = parse_oseq("1,2,3,4,3,2,1(0)")
    N, T = nose_tail(H, 5)
    assert str(N) == "1,2,3,4,3,2(0)"
    assert str(T) == "1,2,3,4,5,2,1(0)"
    assert join_nose_tail(N, T, 5) == H
    assert is_permissible_nose(N, 4, 5)
    assert is_permissible_tail(T, 4, 5)
    assert not is_permissible_nose(T, 4, 5)
    assert not is_permissible_tail(N, 4, 5)


def test_le_partial_examples():
    rows = table_rows(4, 5)
    for u, v in zip(rows, rows[1:]):
        assert le_partial(u, v, 4, 5) is Cmp.LESS
        assert le_partial(v, u, 4, 5) is Cmp.GREATER
    assert le_partial(rows[0], rows[0], 4, 5) is Cmp.EQUAL

    a = oseq([1, 2, 3, 4, 4, 3, 2, 1, 0], 0)
    b = oseq([1, 2, 3, 4, 5, 3, 1], 1)
    assert le_partial(a, b, 3, 5) is Cmp.INCOMPARABLE
    # the public comparison still validates both arguments (H_5 = 3 != 2)
    with pytest.raises(PreconditionError):
        le_partial(a, rows[0], 4, 5)
    with pytest.raises(PreconditionError):
        le_partial(rows[0], a, 4, 5)

    Ha = hilbert_from_partitions((4, 2, 2, 2), (3,), 12, 0)
    Hb = hilbert_from_partitions((3, 3, 3, 1), (2, 1), 12, 0)
    assert le_partial(Ha, Hb, 10, 12) is Cmp.INCOMPARABLE
    assert majorization_le((4, 2, 2, 2), (3, 3, 3, 1)) is Cmp.INCOMPARABLE


def test_majorization_unequal_lengths():
    assert majorization_le((), (1,)) is Cmp.LESS
    assert majorization_le((2, 2), (2, 1)) is Cmp.GREATER
    assert majorization_le((1, 1, 1, 1), (2, 2)) is Cmp.LESS


def test_hasse_4_5():
    edges = {(str(u), str(v)) for u, v in hasse_edges(4, 5)}
    assert edges == {
        ("1,2,3,4,4,2(0)", "1,2,3,4,3,2,1(0)"),
        ("1,2,3,4,3,2,1(0)", "1,2,3,3,3,2,1(0)"),
        ("1,2,3,4,3,2,1(0)", "1,2,3,4,3,2(1)"),
        ("1,2,3,3,3,2,1(0)", "1,2,3,3,3,2(1)"),
        ("1,2,3,4,3,2(1)", "1,2,3,3,3,2(1)"),
        ("1,2,3,3,3,2(1)", "1(2)"),
    }
    assert hasse_edges(1, 1) == []


@pytest.mark.parametrize("j", range(1, 10))
def test_hasse_edges_match_brute_force_reduction(j):
    # the relation from le_partial alone, covers found through it: edges and
    # their order equal the transitive reduction of the partition route
    for d in range(1, j + 1):
        assert hasse_edges(d, j) == brute_force_covers(d, j), (d, j)


def test_hasse_edges_postcondition_checks_emitted_edges(monkeypatch):
    import binforms.hilbert as hilbert

    calls = []
    real = hilbert._le_pq

    def counting(pq1, pq2):
        calls.append((pq1, pq2))
        return real(pq1, pq2)

    monkeypatch.setattr(hilbert, "_le_pq", counting)
    edges = hasse_edges(4, 5)
    # the partition route sees the emitted edges only
    assert calls == [(partitions_pq(a, 4, 5), partitions_pq(b, 4, 5)) for a, b in edges]

    monkeypatch.setattr(hilbert, "_le_pq", lambda *args: Cmp.INCOMPARABLE)
    with pytest.raises(RuntimeError, match="postcondition"):
        hasse_edges(4, 5)
    assert hasse_edges(1, 1) == []  # no edges, nothing to check



@pytest.mark.parametrize("d,j", [(d, j) for j in range(1, 13) for d in range(1, j + 1)])
def test_hasse_edges_match_pairwise_oracle(d, j):
    # exact lists, in order, against the all-pairs scan the bitsets replaced
    assert hasse_edges(d, j) == oracle_hasse_edges(enumerate_acceptable(d, j), j)


def _values(seqs, j):
    top = max(j, *(H.stabilization() for H in seqs)) + 1
    return [H.values(top) for H in seqs]


@pytest.mark.parametrize("j", range(1, 9))
def test_up_sets_are_the_pairwise_order(j):
    # sequences of every d share j, so their values at j differ and the
    # comparison at i = j, in both directions, is exercised
    vals = _values([H for d in range(1, j + 1) for H in enumerate_acceptable(d, j)], j)
    up = _up_sets(vals, j)
    n = len(vals)
    for a, va in enumerate(vals):
        assert 0 <= up[a] < 1 << n
        want = {b for b, vb in enumerate(vals) if _le_values(va, vb, j) is Cmp.LESS}
        assert {b for b in range(n) if up[a] >> b & 1} == want


class _ReadLog(list):
    def __init__(self, items):
        super().__init__(items)
        self.reads = []

    def __getitem__(self, m):
        self.reads.append(m)
        return super().__getitem__(m)


@pytest.mark.parametrize("j", [5, 7, 9])
def test_cover_walk_reads_one_up_set_per_edge(j):
    # enumeration order is a linear extension of the order, so the walk skips
    # every member that is not a cover: it reads exactly the edge targets
    for d in range(1, j + 1):
        up = _ReadLog(_up_sets(_values(enumerate_acceptable(d, j), j), j))
        pairs = list(_cover_pairs(up))
        assert up.reads == [b for _, b in pairs], (d, j)

def test_staircase_examples():
    assert staircase_exponents(parse_oseq("1,2,3,4,3,2,1(0)"), 4, 5) == [(4, 0), (0, 4)]
    assert staircase_exponents(parse_oseq("1,2,3,4,3,2(1)"), 4, 5) == [(4, 0), (1, 3)]
    assert staircase_exponents(parse_oseq("1(2)"), 4, 5) == [(2, 0)]
    H = oseq([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 11, 9, 6, 3, 0], 0)
    assert staircase_exponents(H, 9, 14) == [(12, 0), (7, 5), (3, 10), (0, 14)]
    V, ideal = realize_staircase(H, 9, 14, GF(101))
    assert V.dim == 9 and V.degree == 14
    assert hilbert_function(ideal) == H


def test_counting_against_oracle():
    for n in range(0, 13):
        for k in range(0, n + 2):
            assert count_exact_largest(n, k) == count_partitions_largest(n, k)
            got = {p for p in partitions_exact_largest(n, k)}
            want = {p for p in partitions_of(n) if (p[0] if p else 0) == k}
            assert got == want


# ── property tests ───────────────────────────────────────────────────────────

small_dj = st.integers(1, 7).flatmap(
    lambda j: st.tuples(st.integers(1, j), st.just(j))
)


def _pool(d, j):
    return enumerate_acceptable(d, j)


@settings(max_examples=60, deadline=None)
@given(small_dj, st.integers(0, 10**6))
def test_partition_roundtrip(dj, pick):
    d, j = dj
    pool = _pool(d, j)
    H = pool[pick % len(pool)]
    P, Q = partitions_pq(H, d, j)
    assert sum(P) == d
    assert sum(Q) == j + 1 - d - H.constant
    assert hilbert_from_partitions(P, Q, j, H.constant) == H
    A, B, C, D = betti_partitions(H, d, j)
    assert dual_partition(A) == P and dual_partition(B) == Q
    assert sum(C) == j + 2 and sum(D) == j - H.constant
    assert len(A) == tau_of_h(H, j) and len(B) == tau_of_h(H, j) - 1
    assert len(C) == j + 2 - d and len(D) == d - 1


@settings(max_examples=60, deadline=None)
@given(small_dj, st.integers(0, 10**6))
def test_nose_tail_join(dj, pick):
    d, j = dj
    pool = _pool(d, j)
    H = pool[pick % len(pool)]
    N, T = nose_tail(H, j)
    assert is_permissible_nose(N, d, j)
    assert is_permissible_tail(T, d, j)
    assert N.e(j) == T.e(j + 1) == tau_of_h(H, j) - 1
    assert join_nose_tail(N, T, j) == H


@settings(max_examples=40, deadline=None)
@given(small_dj, st.integers(0, 10**6), st.integers(0, 10**6))
def test_order_agrees_with_partition_route(dj, p1, p2):
    d, j = dj
    pool = _pool(d, j)
    H1, H2 = pool[p1 % len(pool)], pool[p2 % len(pool)]
    assert le_partial(H1, H2, d, j) == le_by_partitions(H1, H2, d, j)


@settings(max_examples=60, deadline=None)
@given(small_dj, st.integers(0, 10**6))
def test_dims_consistency(dj, pick):
    d, j = dj
    pool = _pool(d, j)
    H = pool[pick % len(pool)]
    r = dims(H, d, j)
    assert r.ambient == d * (j + 1 - d)
    assert 0 <= r.dim_grass <= r.dim_la + r.dim_ga  # nose/tail over-parametrize
    assert r.dim_grass <= r.dim_grass_tau <= r.ambient
    assert r.cod_grass == r.ambient - r.dim_grass
    # the full-flag formula is exact whenever the eventual constant vanishes
    if r.c == 0:
        assert r.discrepancies == ()
    else:
        assert r.formulas["codd"] == r.cod_grass
        names = {s.split(":")[0] for s in r.discrepancies}
        assert names <= {"coda", "codc", "code2", "ecodT", "ecodH"}


@settings(max_examples=40, deadline=None)
@given(small_dj, st.integers(0, 10**6))
def test_generic_stratum_is_maximal(dj, pick):
    d, j = dj
    pool = _pool(d, j)
    H = pool[pick % len(pool)]
    tau = tau_of_h(H, j)
    G = h_tau(d, j, tau)
    assert le_partial(G, H, d, j) in (Cmp.LESS, Cmp.EQUAL)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6).flatmap(lambda j: st.tuples(st.integers(1, j), st.just(j))))
def test_enumeration_count_formula(dj):
    d, j = dj
    seqs = enumerate_acceptable(d, j)
    assert len(seqs) == len(set(seqs))
    total = sum(
        count_by_tau(d, j, tau, c)
        for tau in range(1, min(d, j + 2 - d) + 1)
        for c in range(0, j + 2 - d)
    )
    assert total == len(seqs)
    for H in seqs:
        assert is_acceptable(H, d, j)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(1, 6).flatmap(lambda j: st.tuples(st.integers(1, j), st.just(j))),
    st.integers(0, 10**6),
    st.sampled_from([QQ, GF(101), GF(7)]),
)
def test_staircase_realizes(dj, pick, field):
    d, j = dj
    pool = _pool(d, j)
    H = pool[pick % len(pool)]
    V, ideal = realize_staircase(H, d, j, field)
    assert V.dim == d and V.degree == j
    assert hilbert_function(ideal) == H
    A, B, _, _ = betti_partitions(H, d, j)
    assert generator_degrees(ideal) == tuple(sorted(j + 1 - a for a in A))
    assert relation_degrees(ideal) == tuple(sorted(j + 1 + b for b in B))
    assert len(generator_degrees(ideal)) == tau_of_h(H, j) == nu_min(H)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 18), st.integers(0, 10), st.integers(0, 60))
def test_box_count_symmetry(a, b, n):
    from binforms.hilbert import _box_partitions

    assert _box_partitions(a, b, n) == _box_partitions(b, a, n)
    if n > a * b:
        assert _box_partitions(a, b, n) == 0

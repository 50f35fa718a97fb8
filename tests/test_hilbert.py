"""Hilbert-function combinatorics: acceptability, partitions, strata, orders."""

import inspect
import itertools
import operator
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from binforms.fields import GF, QQ
from binforms.errors import PreconditionError
from binforms.hilbert import (
    Cmp,
    _acceptable_pq,
    _cover_pairs,
    _from_pq,
    _majorizes,
    _staircase_pairs,
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
    le_partial,
    nose_tail,
    partitions_exact_largest,
    partitions_pq,
    realize_staircase,
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
    le_values,
    oracle_dims,
    oracle_dual_partition,
    oracle_ell,
    oracle_enumerate_acceptable,
    oracle_h_tau,
    oracle_hasse_edges,
    oracle_is_acceptable,
    oracle_majorizes,
    oracle_permissible_nose,
    oracle_permissible_tail,
    oracle_round_trip_pq,
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


def test_each_enumeration_checks_its_class_counts(monkeypatch):
    import binforms.hilbert as hilbert

    real = hilbert.count_by_tau
    monkeypatch.setattr(hilbert, "count_by_tau", lambda d, j, tau, c: real(d, j, tau, c) + 1)
    with pytest.raises(RuntimeError, match=r"count formula disagrees at \(tau,c\)=\(3,0\)"):
        enumerate_acceptable(4, 5)
    # a listed class whose closed count is empty is refused, in table mode too
    monkeypatch.setattr(
        hilbert, "count_by_tau", lambda d, j, tau, c: 0 if (tau, c) == (2, 1) else real(d, j, tau, c)
    )
    with pytest.raises(RuntimeError, match=r"no sequence at \(tau,c\)=\(2,1\)"):
        table_rows(4, 5)
    with pytest.raises(RuntimeError, match=r"\(tau,c\)=\(2,1\)"):
        enumerate_acceptable(4, 5)


def test_count_by_tau_one_is_the_principal_class():
    # τ = 1: only c = j+1-d, with P = (1, ..., 1) and Q empty
    for j in range(0, 9):
        for d in range(1, j + 2):
            for c in range(-1, j + 3):
                assert count_by_tau(d, j, 1, c) == int(c == j + 1 - d)


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


@pytest.mark.parametrize(
    "P,Q,c,message",
    [
        ((), (), 0, "bad partition data"),
        ((2, 0), (1,), 0, "bad partition data"),
        ((2, 1), (1,), -1, "bad partition data"),
        ((1, 2), (1,), 0, "weakly decreasing"),
        ((2, 1), (2,), 0, "largest part of Q must be τ-1"),
        ((2, 1), (), 0, "Q may be empty only when τ = 1"),
        ((1,) * 7, (), 0, r"more than j\+1 parts"),
        ((2, 1), (1,), 0, "do not reach the requested constant"),
    ],
)
def test_hilbert_from_partitions_refusals(P, Q, c, message):
    with pytest.raises(PreconditionError, match=message):
        hilbert_from_partitions(P, Q, 5, c)


def _small_sequences():
    """Every prefix of length <= 5 with H_i in 0..i+2, under every constant
    0..6 and the zero-ideal tail."""
    prefixes = [()]
    for i in range(5):
        prefixes += [p + (v,) for p in prefixes if len(p) == i for v in range(i + 3)]
    return {oseq(p, c) for p in prefixes for c in [*range(7), None]}


def _mutations(H, j):
    """H and each sequence one step from it: one entry H_i, i <= max(s, j) + 1,
    or the constant moved by ±1."""
    vals = list(H.values(max(H.stabilization(), j) + 1))
    out = {H}
    for i, v in enumerate(vals):
        out.update(
            oseq(vals[:i] + [v + step] + vals[i + 1 :], H.constant)
            for step in (-1, 1)
            if v + step >= 0
        )
    out.update(oseq(H.prefix, H.constant + step) for step in (-1, 1) if H.constant + step >= 0)
    return out


def test_is_acceptable_matches_inequality_oracle():
    # the partition round trip against the inequalities on the difference sequence
    for H in _small_sequences():
        for j in range(6):
            for d in range(j + 3):
                assert is_acceptable(H, d, j) == oracle_is_acceptable(H, d, j), (str(H), d, j)
    for j in range(1, 11):
        for d in range(1, j + 1):
            near = set().union(*(_mutations(H, j) for H in enumerate_acceptable(d, j)))
            for H in near:
                assert is_acceptable(H, d, j) == oracle_is_acceptable(H, d, j), (str(H), d, j)


@pytest.mark.parametrize("tie", [operator.eq, operator.ge, operator.le], ids=["eq", "ge", "le"])
def test_acceptable_pq_matches_the_round_trip_oracle(tie):
    # one decode and fullness below the order against the rebuild of H from its (P, Q), for H
    # and for noses and tails: the small sequences and every one a step from an acceptable H
    small = ((H, d, j) for H in _small_sequences() for j in range(6) for d in range(j + 3))
    near = (
        (H, d, j)
        for j in range(1, 11)
        for d in range(1, j + 1)
        for H in set().union(*(_mutations(H, j) for H in enumerate_acceptable(d, j)))
    )
    accepted = 0
    for H, d, j in itertools.chain(small, near):
        got = _acceptable_pq(H, d, j, tie)
        assert got == oracle_round_trip_pq(H, d, j, tie), (str(H), d, j)
        accepted += got is not None
    # each acceptable H is one step from itself, and every tie admits it
    assert accepted > sum(len(enumerate_acceptable(d, j)) for j in range(1, 11) for d in range(1, j + 1))


def test_from_pq_rebuilds_every_acceptable_sequence_from_its_partitions():
    built = 0
    for j in range(1, 13):
        for d in range(1, j + 1):
            for H in enumerate_acceptable(d, j):
                assert _from_pq(*partitions_pq(H, d, j), j, H.constant) == H, (str(H), d, j)
                built += 1
    assert built == 1602


def test_dims_and_partitions_pq_read_h_once_and_build_no_sequence(monkeypatch):
    import binforms.hilbert as hilbert
    from binforms.osequence import OSequence

    cases = [(H, d, j) for j in (1, 5, 9) for d in range(1, j + 1) for H in enumerate_acceptable(d, j)]
    calls, values = [], OSequence.values
    monkeypatch.setattr(hilbert, "oseq", lambda *a: calls.append("oseq") or oseq(*a))
    monkeypatch.setattr(OSequence, "values", lambda H, upto: calls.append("values") or values(H, upto))
    for read in (dims, partitions_pq):
        for H, d, j in cases:
            del calls[:]
            read(H, d, j)
            assert calls == ["values"], (read.__name__, str(H), d, j)


@pytest.mark.parametrize("j", range(10))
def test_hilbert_from_partitions_inverts_pq_on_every_shape(j):
    # every pair of partitions of size <= j+2: built exactly when the shape
    # conditions hold, and then acceptable with (P, Q) read back by partitions_pq
    parts = [p for n in range(j + 3) for p in partitions_of(n)]
    built = 0
    for P in parts:
        for Q in parts:
            for c in range(-1, j + 3):
                shaped = (
                    bool(P)
                    and (Q[:1] == (P[0] - 1,) if Q else P[0] == 1)
                    and len(P) <= j + 1
                    and 0 <= c == j + 1 - sum(P) - sum(Q)
                )
                try:
                    H = hilbert_from_partitions(P, Q, j, c)
                except PreconditionError:
                    assert not shaped, (P, Q, c)
                    continue
                assert shaped, (P, Q, c)
                assert oracle_is_acceptable(H, sum(P), j), (P, Q, c)
                assert partitions_pq(H, sum(P), j) == (P, Q) and H.constant == c
                built += 1
    # d = j+1 has one sequence, P = (1, …, 1), which enumerate_acceptable omits
    assert built == 1 + sum(len(enumerate_acceptable(d, j)) for d in range(1, j + 1))


@pytest.mark.parametrize("d,j", [(0, 3), (4, 3), (9, 3)])
def test_table_rows_refuses_outside_the_domain(d, j):
    # the same domain and message as enumerate_acceptable, d = j+1 included
    with pytest.raises(PreconditionError, match="need 1 <= d <= j"):
        table_rows(d, j)


@pytest.mark.parametrize(
    "text,want",
    [
        ("1,2,3,2,1,0", oseq([1, 2, 3, 2, 1], 0)),  # bare list: last entry is the constant
        (" 1, 2, 1 ", oseq([1, 2], 1)),
        ("(+)", oseq([], None)),  # the zero ideal
        ("1,2,3(+)", oseq([], None)),
    ],
)
def test_parse_oseq_documented_forms(text, want):
    assert parse_oseq(text) == want


def test_zero_ideal_sequence_has_no_order():
    # every degree is full, so there is no initial degree
    assert oseq((), None).order() is None


@pytest.mark.parametrize(
    "H",
    [oseq([], 0), oseq([], 3), oseq([], None), oseq([1, 2, 3, 2, 1], 0), oseq([1, 2, 2], 4),
     oseq([1, 1], None), oseq([1, 3], None), oseq([0], None)],
    ids=str,
)
def test_bulk_reads_match_per_index_definitions(H):
    # values(upto) is a slice of the prefix and its padding, order() a walk of the prefix
    n = len(H.prefix)
    for upto in range(-3, n + 4):  # below, at and past the prefix
        assert H.values(upto) == tuple(H.value(i) for i in range(upto + 1)), upto
    reach = n + (H.constant or 0) + 1  # past the prefix, H_i = c < i + 1 from i = c on
    assert H.order() == next((i for i in range(reach) if H.value(i) < i + 1), None)


@pytest.mark.parametrize(
    "text,message",
    [("  ", "empty Hilbert-function text"), (",,", "bad Hilbert-function text"),
     ("1,x,1(0)", "bad integer 'x'"), ("1,2(y)", "bad integer 'y'")],
)
def test_parse_oseq_refusals(text, message):
    with pytest.raises(PreconditionError, match=message):
        parse_oseq(text)


@pytest.mark.parametrize(
    "values,constant",
    [([1, 2.9, 1.5], 0), ([True, 2], 1), ([1, Fraction(2)], 0), ([1, "2"], 0), ([1, -1], 0),
     ([1, 2], 1.0), ([1, 2], True), ([1, 2], Fraction(1)), ([1, 2], -1), ([1, True], 0)],
)
def test_oseq_refuses_what_is_not_a_non_negative_int(values, constant):
    # nothing is truncated: oseq([1, 2.9, 1.5], 0) is refused, not 1,2,1(0)
    with pytest.raises(PreconditionError, match="must be a? ?non-negative int"):
        oseq(values, constant)


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


def test_dual_partition_is_the_counting_definition():
    for n in range(17):
        for p in partitions_of(n):
            assert dual_partition(p) == oracle_dual_partition(p), p


def test_dims_matches_per_index_oracle():
    # every field of every report; the oracle's A, B are the counting duals and its
    # C, D the sorted, padded definition, so this checks `_betti`'s padding too
    reports = 0
    for j in range(1, 13):
        for d in range(1, j + 1):
            for H in enumerate_acceptable(d, j):
                assert dims(H, d, j) == oracle_dims(H, d, j), (str(H), d, j)
                reports += 1
    assert reports == 1602


def test_ell_matches_pairwise_oracle():
    for n in range(22):
        for p in partitions_of(n):
            assert ell(p) == oracle_ell(p), p
    for j in range(1, 11):
        for d in range(1, j + 1):
            for H in enumerate_acceptable(d, j):
                r = dims(H, d, j)
                for p in (r.A, r.B, r.C, r.D):
                    assert ell(p) == oracle_ell(p), (str(H), p)


def test_dims_of_a_line_is_linear_in_j():
    # d = 1 pads C to j+1 parts; the pairwise ℓ took seconds at j = 4000
    j = 20000
    H = table_rows(1, j)[0]
    start = time.perf_counter()
    r = dims(H, 1, j)
    assert time.perf_counter() - start < 2.0
    assert len(r.C) == j + 1 and r.formulas["code"] == ell(r.C)


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


def test_permissibility_refuses_a_wrong_value_at_j_or_a_value_out_of_range():
    N, T = nose_tail(parse_oseq("1,2,3,4,3,2,1(0)"), 5)
    assert not is_permissible_nose(N, 3, 5)  # N_5 = 2, not 5 + 1 - 3
    assert not is_permissible_tail(T, 3, 5)  # T_5 = 2, not 5 + 1 - 3
    assert not is_permissible_nose(oseq([1, 2, 2, 1], 0), 1, 2)  # nonzero past j
    assert not is_permissible_nose(oseq([1, 3, 2], 0), 1, 2)  # N_1 = 3 > 1 + 1


def test_permissible_means_the_nose_or_tail_of_an_acceptable_sequence():
    # for 1 <= d <= j <= 6, a permissible nose (tail) for (d, j) is exactly the
    # nose (tail) of some acceptable H; the candidates are every nose with
    # 0 <= N_i <= i + 1 and N_j = j + 1 - d, and every tail with up to three
    # entries past j and a constant, each in 0 .. j + 1
    for j in range(1, 7):
        for d in range(1, j + 1):
            halves = [nose_tail(H, j) for H in enumerate_acceptable(d, j)]
            noses, tails = {N for N, _ in halves}, {T for _, T in halves}
            for head in itertools.product(*(range(i + 2) for i in range(j))):
                N = oseq([*head, j + 1 - d], 0)
                assert is_permissible_nose(N, d, j) == (N in noses), (d, j, str(N))
            for k in range(4):
                for past in itertools.product(range(j + 2), repeat=k):
                    for constant in range(j + 2):
                        T = oseq([*range(1, j + 1), j + 1 - d, *past], constant)
                        assert is_permissible_tail(T, d, j) == (T in tails), (d, j, str(T))


def test_permissibility_matches_the_difference_sequence_oracles():
    # every sequence with a prefix of length <= 5 over 0 .. 5 and a constant in
    # {0, 1, 2, 3, None}, at each 0 <= j <= 5 with d = j+1-S_j (the d that S's
    # value at j names), one below it, and 0 (the zero space)
    seqs = {
        oseq(prefix, c)
        for k in range(6)
        for prefix in itertools.product(range(6), repeat=k)
        for c in (0, 1, 2, 3, None)
    }
    assert len(seqs) == 38880
    start = time.perf_counter()
    mismatches = [
        (str(S), d, j)
        for S in seqs
        for j in range(6)
        for d in {j + 1 - S.value(j), j - S.value(j), 0}
        if is_permissible_nose(S, d, j) != oracle_permissible_nose(S, d, j)
        or is_permissible_tail(S, d, j) != oracle_permissible_tail(S, d, j)
    ]
    assert mismatches == []
    assert time.perf_counter() - start < 3.0


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
    assert _majorizes((4, 2, 2, 2), (3, 3, 3, 1)) is _majorizes((3, 3, 3, 1), (4, 2, 2, 2)) is False


def test_majorization_unequal_lengths():
    # (p >= q, q >= p) for each pair
    assert (_majorizes((), (1,)), _majorizes((1,), ())) == (False, True)
    assert (_majorizes((2, 2), (2, 1)), _majorizes((2, 1), (2, 2))) == (True, False)
    assert (_majorizes((1, 1, 1, 1), (2, 2)), _majorizes((2, 2), (1, 1, 1, 1))) == (False, True)


def test_majorizes_matches_per_index_oracle():
    # every ordered pair of partitions of n, m <= 9, sizes and lengths unequal included
    parts = [p for n in range(10) for p in partitions_of(n)]
    for p, q in itertools.product(parts, repeat=2):
        assert _majorizes(p, q) is oracle_majorizes(p, q), (p, q)


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


def _l1(p, q):
    return sum(abs(a - b) for a, b in itertools.zip_longest(p, q, fillvalue=0))


def test_every_cover_drops_the_stratum_dimension():
    # Theorem closureofstrata's frontier property: a more special stratum lies in the
    # closure's boundary, so it has smaller dimension.  The poset is not graded by
    # dimension: the 885 covers with d <= j <= 10 drop by 1, 2, 3 and 4 on 446, 329,
    # 92 and 18 of them, so a cover may assert a drop of at least 1, never exactly 1.
    # The shape of a cover (Brylawski's covers of the dominance order): P moves by at
    # most one box, and Q loses one box or keeps its size and moves by at most one.
    # Every comparable pair in place of the covers breaks the shape (654 of the 1,097
    # pairs with j <= 8), and the shape also holds on all 2,576 covers with j <= 12.
    drops, shapes = Counter(), Counter()
    for j in range(1, 11):
        for d in range(1, j + 1):
            for H, special in hasse_edges(d, j):
                r, s = dims(H, d, j), dims(special, d, j)
                drop = r.dim_grass - s.dim_grass
                assert drop >= 1, (H, special, d, j)
                drops[drop] += 1
                shape = _l1(r.P, s.P), sum(r.Q) - sum(s.Q), _l1(r.Q, s.Q)
                assert shape[0] in (0, 2) and shape[1:] in ((1, 1), (0, 0), (0, 2)), (H, special)
                shapes[shape] += 1
    assert drops == {1: 446, 2: 329, 3: 92, 4: 18}
    assert shapes == {(0, 0, 2): 79, (0, 1, 1): 354, (2, 0, 0): 236, (2, 0, 2): 171, (2, 1, 1): 45}


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


def test_hasse_edges_postcondition_reads_the_enumerated_partitions(monkeypatch):
    # the check compares the (P, Q) each sequence was built from: swapping the
    # pairs of one edge's ends turns that edge around
    import binforms.hilbert as hilbert

    pairs = hilbert._enumerate_pq(4, 5)
    seqs = [H for H, _ in pairs]
    a, b = (seqs.index(H) for H in hasse_edges(4, 5)[0])
    swapped = list(pairs)
    swapped[a], swapped[b] = (seqs[a], pairs[b][1]), (seqs[b], pairs[a][1])
    monkeypatch.setattr(hilbert, "_enumerate_pq", lambda d, j: swapped)
    with pytest.raises(RuntimeError, match="postcondition: edge .* compares greater"):
        hasse_edges(4, 5)


@pytest.mark.parametrize(
    "d,j", [(d, j) for j in range(1, 13) for d in range(1, j + 1)] + [(7, 14), (8, 16)]
)
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
    seqs = [H for d in range(1, j + 1) for H in enumerate_acceptable(d, j)]
    up = _up_sets(seqs, j)
    vals = _values(seqs, j)
    n = len(vals)
    for a, va in enumerate(vals):
        assert 0 <= up[a] < 1 << n
        want = {b for b, vb in enumerate(vals) if le_values(va, vb, j) is Cmp.LESS}
        assert {b for b in range(n) if up[a] >> b & 1} == want


@pytest.mark.parametrize("j", range(1, 11))
def test_le_partial_is_the_termwise_order_on_every_pair(j):
    # Theorem codpartition: majorization of (P, Q) is the termwise order of H
    for d in range(1, j + 1):
        seqs = enumerate_acceptable(d, j)
        pairs = list(zip(seqs, _values(seqs, j)))
        for H1, v1 in pairs:
            for H2, v2 in pairs:
                assert le_partial(H1, H2, d, j) is le_values(v1, v2, j), (d, j, str(H1), str(H2))


def test_criterion_8_fails_on_up_sets_without_the_descending_pass(monkeypatch):
    import binforms.hilbert as hilbert
    import binforms.verify as verify

    source = inspect.getsource(hilbert._up_sets)
    assert source.count("ascending[::-1]") == 1
    namespace = dict(vars(hilbert))
    exec(source.replace("ascending[::-1]", "ascending"), namespace)
    monkeypatch.setattr(verify, "_up_sets", namespace["_up_sets"])
    result = verify.criterion_8(max_j=5)
    assert not result.passed
    assert all(": direct " in f and ", partitions " in f for f in result.failures)


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
        up = _ReadLog(_up_sets(enumerate_acceptable(d, j), j))
        pairs = list(_cover_pairs(up))
        assert up.reads == [b for _, b in pairs], (d, j)

def test_staircase_examples():
    def exponents(H, d, j):
        A, B, _, _ = betti_partitions(H, d, j)
        return _staircase_pairs(A, B, j)

    assert exponents(parse_oseq("1,2,3,4,3,2,1(0)"), 4, 5) == [(4, 0), (0, 4)]
    assert exponents(parse_oseq("1,2,3,4,3,2(1)"), 4, 5) == [(4, 0), (1, 3)]
    assert exponents(parse_oseq("1(2)"), 4, 5) == [(2, 0)]
    H = oseq([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 11, 9, 6, 3, 0], 0)
    assert exponents(H, 9, 14) == [(12, 0), (7, 5), (3, 10), (0, 14)]
    V, ideal = realize_staircase(H, 9, 14, GF(101))
    assert V.dim == 9 and V.degree == 14
    assert hilbert_function(ideal) == H


def test_staircase_runs_no_elimination_and_no_sigma_pass(monkeypatch):
    # the cost `realize_staircase` may have: no row handed to `rref`, no order-basis pass
    from binforms import linalg, spaces

    calls, rref, sigma = [], linalg.rref, spaces._order_basis_degrees
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append("rref") or rref(m))
    monkeypatch.setattr(spaces, "_order_basis_degrees", lambda *a: calls.append("sigma") or sigma(*a))
    for field, top in ((GF(101), 9), (QQ, 6)):
        for j in range(1, top + 1):
            for d in range(1, j + 1):
                for H in enumerate_acceptable(d, j):
                    V, ideal = realize_staircase(H, d, j, field)
                    assert V.dim == d and hilbert_function(ideal) == H
    assert calls == []


def test_counting_against_oracle():
    for n in range(0, 13):
        for k in range(0, n + 4):
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
    v1, v2 = _values([H1, H2], j)
    assert le_partial(H1, H2, d, j) == le_values(v1, v2, j)


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


LEDGER_NAMES = (
    "codb", "codc", "coda", "code", "codf", "codd", "code2",
    "ecodN", "ecodT", "ecodH", "ecodtau",
)


@pytest.mark.parametrize("j", range(1, 9))
def test_dims_ledger_against_a_restatement(j):
    # each truth restated from the report's own dimension fields
    for d in range(1, j + 1):
        for H in enumerate_acceptable(d, j):
            r = dims(H, d, j)
            inner, amb = r.dim_grass_tau, r.ambient
            truth = {
                "codb": inner - r.dim_la,
                "codc": inner - r.dim_ga,
                "coda": inner - r.dim_grass,
                "code": amb - r.dim_la,
                "codf": amb - r.dim_ga,
                "codd": amb - r.dim_grass,
                "code2": amb - r.dim_grass,
                "ecodN": amb - r.dim_la,
                "ecodT": amb - r.dim_ga,
                "ecodH": amb - r.dim_grass,
                "ecodtau": (d - r.tau) * (j + 2 - d - r.tau),
            }
            assert tuple(r.formulas) == LEDGER_NAMES
            assert r.discrepancies == tuple(
                f"{name}: formula gives {r.formulas[name]}, truth {truth[name]}"
                for name in LEDGER_NAMES
                if r.formulas[name] != truth[name]
            )


@pytest.mark.parametrize("j", range(1, 11))
def test_tau_stratum_identity_holds_on_every_stratum(j):
    # ambient - dim τ-stratum = (d - τ)(j + 2 - d - τ) is one ledger entry
    for d in range(1, j + 1):
        for H in enumerate_acceptable(d, j):
            r = dims(H, d, j)
            assert r.ambient - r.dim_grass_tau == r.formulas["ecodtau"]
            assert not any(s.startswith("ecodtau:") for s in r.discrepancies)


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

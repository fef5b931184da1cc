import random
import time
import tracemalloc
import types
from fractions import Fraction
from math import gcd

import pytest

import numelast
from numelast import (
    EnumerationLimitExceeded,
    NoSubcollection,
    NotInMonoid,
    detect_arithmetical,
    elasticity,
    factorizations,
    find_proper_subcollection,
    iter_lengths,
    length_set,
    length_stats_range,
    max_elasticity,
    max_length,
    min_length,
    new_monoid,
)
from numelast.lengths import ENUMERATION_LIMIT

import oracles

S357 = new_monoid([3, 5, 7])


def test_factorizations_of_ten():
    facs = factorizations(S357, 10)
    assert [f.exponents for f in facs] == [(1, 0, 1), (0, 2, 0)]
    assert [f.length for f in facs] == [2, 2]


def test_lengths_module_is_not_shadowed():
    import numelast.lengths as module

    assert isinstance(module, types.ModuleType)
    assert module.max_length is max_length
    assert callable(numelast.factorizations)
    assert numelast.factorizations is module.factorizations


def test_factorizations_edge_cases():
    assert [f.exponents for f in factorizations(S357, 0)] == [(0, 0, 0)]
    assert factorizations(S357, 4) == []
    assert factorizations(S357, -3) == []


def test_factorizations_order_is_reverse_lex_descending():
    S = new_monoid([2, 3])
    expos = [f.exponents for f in factorizations(S, 12)]
    assert expos == sorted(expos, key=lambda e: e[::-1], reverse=True)


def test_factorizations_match_oracle():
    for gens in [(3, 5, 7), (6, 10, 13, 14), (2, 3)]:
        S = new_monoid(gens)
        for n in range(0, 80):
            got = {f.exponents for f in factorizations(S, n)}
            assert got == set(oracles.enumerate_factorizations(gens, n))


def test_enumeration_guard():
    S = new_monoid([3, 5])
    with pytest.raises(EnumerationLimitExceeded):
        factorizations(S, 10**7)
    with pytest.raises(EnumerationLimitExceeded):
        factorizations(S, ENUMERATION_LIMIT // S.g1 + 1)
    assert factorizations(S, 100)  # default limit admits desk-scale elements


def test_enumeration_guard_bounds_the_exponent_vectors():
    # n g_1 is far below the limit, but the recursion would visit up to
    # C(800 // 7 + 5, 5) = 182,637,273 exponent vectors: refused at once
    S = new_monoid([6, 7, 8, 9, 10, 11])
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitExceeded):
        factorizations(S, 800)
    with pytest.raises(EnumerationLimitExceeded):
        length_set(S, 800)
    assert time.perf_counter() - start < 1
    # <3,4,5> admits n = 17,883 (C(4472, 2) vectors) and refuses n = 17,884
    with pytest.raises(EnumerationLimitExceeded):
        factorizations(new_monoid([3, 4, 5]), 17884)


def test_oracles_agree_with_each_other():
    # the fast recurrence reference matches exhaustive vector enumeration
    for gens in [(3, 5, 7), (6, 10, 13, 14), (2, 3), (5, 16, 17, 18, 19)]:
        enum = oracles.length_arrays(gens, 500)
        rec = oracles.recurrence_length_arrays(gens, 500)
        assert list(enum[0]) == rec[0]
        for n in range(501):
            if enum[0][n] >= 0:
                assert enum[1][n] == rec[1][n]


def test_length_set_examples():
    assert length_set(S357, 10) == {2}
    assert length_set(S357, 0) == {0}
    with pytest.raises(NotInMonoid):
        length_set(S357, 4)


def test_length_set_keeps_no_factorization():
    # the lengths of every vector, as factorizations lists them, on seeded
    # monoids of 2 to 4 generators below 30, members or not
    rng = random.Random(28)
    monoids = []
    while len(monoids) < 40:
        raw = rng.sample(range(2, 30), rng.randint(2, 4))
        if gcd(*raw) == 1:
            monoids.append(new_monoid(raw))
    for S in monoids:
        for n in rng.sample(range(0, 400), 12):
            lengths = {f.length for f in factorizations(S, n)}
            if lengths:
                assert length_set(S, n) == lengths, (S, n)
            else:
                with pytest.raises(NotInMonoid):
                    length_set(S, n)
    # <3,4,5> at n = 3000: 401 lengths over some 10^5 vectors, which a list
    # of Factorization objects held in over 13 MB
    S = new_monoid([3, 4, 5])
    tracemalloc.start()
    try:
        lengths = length_set(S, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lengths == set(range(600, 1001))
    assert peak < 10**6


def test_length_set_four_six_exists():
    S = new_monoid([6, 10, 13, 14])
    hits = [n for n in range(1, 267) if n in S and length_set(S, n) == {4, 6}]
    assert hits and hits[0] == 43


def test_max_min_examples():
    S = new_monoid([5, 16, 17, 18, 19])
    assert (max_length(S, 100), min_length(S, 100)) == (20, 6)
    S2 = new_monoid([7, 12, 17, 22])
    assert (max_length(S2, 66), min_length(S2, 66)) == (8, 3)
    for S3 in (S, S2, S357):
        assert max_length(S3, S3.g1) == 1
        assert min_length(S3, S3.g1) == 1
    with pytest.raises(NotInMonoid):
        max_length(S357, 4)
    with pytest.raises(NotInMonoid):
        min_length(S357, 2)


def test_lengths_match_oracle_small_monoids():
    # spec invariant: g_k <= 30, all n <= 2 * g_{k-1} * g_k
    for gens in [(3, 5, 7), (6, 10, 13, 14), (5, 16, 17, 18, 19), (2, 3), (4, 9, 11)]:
        S = new_monoid(gens)
        limit = 2 * S.generators[-2] * S.gk
        maxs, mins = oracles.length_arrays(gens, limit)
        for n in range(limit + 1):
            if maxs[n] < 0:
                assert not (n in S)
                continue
            assert max_length(S, n) == maxs[n], (gens, n)
            assert min_length(S, n) == mins[n], (gens, n)


def test_quasilinearity_on_fixtures():
    for gens in [(3, 5, 7), (6, 10, 13, 14), (7, 12, 17, 22), (3, 5)]:
        S = new_monoid(gens)
        up = (S.g1 - 1) * S.gk
        down = (S.gk - 1) * S.generators[-2]
        for n in range(up + 1, 5001):
            assert max_length(S, n) == max_length(S, n - S.g1) + 1
        for n in range(down + 1, 5001):
            assert min_length(S, n) == min_length(S, n - S.gk) + 1


def test_elasticity_examples():
    S = new_monoid([7, 12, 17, 22])
    assert elasticity(S, 66) == Fraction(8, 3)
    assert elasticity(S357, 10) == 1
    assert elasticity(S357, 0) == 1
    with pytest.raises(NotInMonoid):
        elasticity(S357, 4)


def test_elasticity_bounds():
    for gens in [(3, 5, 7), (6, 10, 13, 14), (7, 12, 17, 22), (3, 5), (20, 21, 45)]:
        S = new_monoid(gens)
        top = max_elasticity(S)
        for st in length_stats_range(S, 0, 3000):
            assert 1 <= st.elasticity <= top


def test_arithmetical_length_sets_live_on_a_progression():
    # lengths of one element differ by multiples of the step d
    for gens in [(7, 12, 17, 22), (3, 5), (4, 7, 10)]:
        S = new_monoid(gens)
        d = detect_arithmetical(S).d
        for n in range(1, 240):
            if n not in S:
                continue
            lengths = sorted(length_set(S, n))
            assert all((x - lengths[0]) % d == 0 for x in lengths)


def test_length_stats_range_examples():
    stats = length_stats_range(S357, 0, 7)
    assert [st.n for st in stats] == [0, 3, 5, 6, 7]
    assert stats[0] == stats[0].__class__(0, 0, 0, Fraction(1))
    assert length_stats_range(S357, 5, 4) == []
    entries = length_stats_range(new_monoid([6, 10, 13, 14]), 1, 266)
    assert len(entries) == 254  # 12 gaps below 22, none after
    assert [st.n for st in entries] == sorted(st.n for st in entries)


def test_length_stats_range_matches_pointwise_ops():
    S = new_monoid([6, 10, 13, 14])
    for st in length_stats_range(S, 0, 400):
        assert st.max_len == max_length(S, st.n)
        assert st.min_len == min_length(S, st.n)
        assert st.elasticity == elasticity(S, st.n)


def test_iter_lengths_matches_length_stats_range():
    # ranges that start below 0, start past both M/m windows, or hold nothing
    for gens in [(3, 5, 7), (6, 10, 13, 14), (7, 12, 17, 22), (20, 21, 45), (1,)]:
        S = new_monoid(gens)
        g1, gk, gk1 = gens[0], gens[-1], gens[max(len(gens) - 2, 0)]
        past = max((g1 - 1) * gk, (gk - 1) * gk1) + 1
        for lo, hi in [(-25, 90), (past, past + 3 * g1 * gk), (past + 5, past + 4), (-3, -1)]:
            rows = list(iter_lengths(S, lo, hi))
            stats = length_stats_range(S, lo, hi)
            assert rows == [(st.n, st.max_len, st.min_len) for st in stats]
            for n, big, small in rows:
                assert (big, small) == (max_length(S, n), min_length(S, n))
            assert [st.elasticity for st in stats] == [elasticity(S, n) for n, _, _ in rows]
        assert list(iter_lengths(S, past + 5, past + 4)) == []
        assert list(iter_lengths(S, -3, -1)) == []
    assert list(iter_lengths(S357, 4, 4)) == []  # a gap of <3,5,7>
    assert list(iter_lengths(S357, -5, 6)) == [(0, 0, 0), (3, 1, 1), (5, 1, 1), (6, 2, 2)]


def test_subcollection_examples():
    assert find_proper_subcollection(3, [1, 1, 1]) == set()
    assert find_proper_subcollection(2, [1, 2, 1]) == {1, 3}
    assert find_proper_subcollection(2, [3, 5]) == set()


def test_subcollection_zero_modulus():
    assert find_proper_subcollection(0, [2, -2, 5]) == {3}
    with pytest.raises(NoSubcollection):
        find_proper_subcollection(0, [1, 1, 1])
    with pytest.raises(ValueError):
        find_proper_subcollection(-1, [1])


def test_subcollection_random_contract():
    rng = random.Random(2024)
    for _ in range(1000):
        k = rng.randint(0, 20)
        r = rng.randint(max(k, 1), 40)
        c = [rng.randint(-100, 100) for _ in range(r)]
        try:
            chosen = find_proper_subcollection(k, c)
        except NoSubcollection:
            assert k == 0
            prefix = [0]
            for value in c:
                prefix.append(prefix[-1] + value)
            assert len(set(prefix)) == len(prefix)
            continue
        assert chosen < set(range(1, r + 1))
        diff = sum(c) - sum(c[i - 1] for i in chosen)
        assert (diff % k if k else diff) == 0

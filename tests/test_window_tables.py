"""Property tests of normalization and the cached window tables against tests/oracles.py.

Lengths are checked against the full-range recurrence oracle, which knows no
windows, step-backs or caches; its agreement with the enumeration oracle is
tested in test_factorizations.py.  Enumeration itself is too slow here: at
five generators near 40 it takes seconds per monoid.  The breakpoints, the
length columns written from them and every point query are checked against
the one-atom dynamic program ``oracles.dp_fill``.
"""

import random
import tracemalloc
from array import array
from fractions import Fraction
from itertools import chain, count
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numelast
from numelast import (
    NotInMonoid,
    contains,
    elasticity,
    frobenius,
    iter_lengths,
    max_length,
    min_length,
    new_monoid,
)
from numelast.monoid import TABLE_CACHE_SIZE, WRITE_CHUNK, WindowTables, window_tables

import oracles

raw_sets = st.lists(st.integers(1, 40), min_size=1, max_size=5).filter(lambda raw: gcd(*raw) == 1)
bounded = settings(derandomize=True, max_examples=40, deadline=None)


def _atoms(raw):
    gens = sorted(set(raw))
    return tuple(g for i, g in enumerate(gens) if i == 0 or not oracles.membership(gens[:i], g)[g])


def _limit(gens):
    # both windows plus two periods g_1 g_k of steps back
    g1, gk = gens[0], gens[-1]
    window = max((g1 - 1) * gk, (gk - 1) * gens[-2] if len(gens) > 1 else 0)
    return window + 2 * g1 * gk


def _answers(S, limit):
    rows = [
        (max_length(S, n), min_length(S, n)) if contains(S, n) else None
        for n in range(limit + 1)
    ]
    return frobenius(S), rows


def _expected(gens, limit):
    maxs, mins = oracles.recurrence_length_arrays(gens, limit)
    rows = [(maxs[n], mins[n]) if maxs[n] >= 0 else None for n in range(limit + 1)]
    gaps = [n for n, row in enumerate(rows) if row is None]
    return (gaps[-1] if gaps else -1), rows


@bounded
@given(raw_sets)
def test_new_monoid_keeps_the_atoms(raw):
    S = new_monoid(raw)
    assert S.generators == _atoms(raw)
    assert new_monoid(S.generators) == S


@bounded
@given(raw_sets)
def test_tables_match_oracle_through_clear_and_eviction(raw):
    S = new_monoid(raw)
    limit = _limit(S.generators)
    expected = _expected(S.generators, limit)
    assert _answers(S, limit) == expected
    members = [(n, *row) for n, row in enumerate(expected[1]) if row is not None]
    assert list(iter_lengths(S, 0, limit)) == members
    assert not contains(S, -1)
    with pytest.raises(NotInMonoid):
        max_length(S, expected[0])
    with pytest.raises(NotInMonoid):
        min_length(S, -1)

    numelast.clear_caches()
    assert window_tables.cache_info().currsize == 0
    assert _answers(S, limit) == expected

    built = window_tables(S.generators)
    for i in range(TABLE_CACHE_SIZE):  # generators above 40: never S
        window_tables((2, 41 + 2 * i))
    assert window_tables.cache_info().currsize == TABLE_CACHE_SIZE
    assert window_tables(S.generators) is not built
    assert _answers(S, limit) == expected


def _stepped(maxs, mins, window, g1, gk, n):
    """M(n) and m(n), -1 for a gap, from the oracle's arrays up to past
    ``window``: beyond their end, by stepping back into the window."""
    if n < len(maxs):
        return (maxs[n], mins[n]) if maxs[n] >= 0 else (-1, -1)
    up = (n - window + g1 - 1) // g1
    down = (n - window + gk - 1) // gk
    return maxs[n - up * g1] + up, mins[n - down * gk] + down


@settings(derandomize=True, max_examples=150, deadline=None)
@given(raw_sets, st.data())
def test_rows_and_columns_match_recurrences_on_ranges(raw, data):
    # ranges from 0, the Frobenius number, the window end, chunk boundaries
    # and 10**20, of lengths up to three chunks, empty and negative ones too
    S = new_monoid(raw)
    gens = S.generators
    g1, gk = gens[0], gens[-1]
    window = (gk - 1) * gens[-2] if len(gens) > 1 else 0
    size = len(next(window_tables(gens).columns(0, 10**9))[1])
    assert size >= WRITE_CHUNK and size % gk == 0
    maxs, mins = oracles.recurrence_length_arrays(gens, window + 4 * size)
    anchor = data.draw(st.sampled_from(
        [0, frobenius(S), window, size, 2 * size, window + size, 10**20, 3 * 10**20 + 7]
    ))
    lo = anchor + data.draw(st.integers(-2 * gk, 2 * gk))
    hi = lo + data.draw(st.sampled_from([-5, -1, 0, 1, size - 1, size, size + 1, 3 * size]))
    expected = [(n, *_stepped(maxs, mins, window, g1, gk, n)) for n in range(max(lo, 0), hi + 1)]
    assert list(iter_lengths(S, lo, hi)) == [row for row in expected if row[2] >= 0]
    chunks = list(window_tables(gens).columns(lo, hi))
    assert [start for start, _, _ in chunks] == list(range(max(lo, 0), hi + 1, size))
    assert all(len(big) == len(small) for _, big, small in chunks)
    columns = [(n, M, m) for start, big, small in chunks for n, M, m in zip(count(start), big, small)]
    assert columns == expected


# the monoids of the command-line ladder the benchmark runs
LADDER = ((7, 12, 17, 22), (31, 57, 73, 101), (101, 157, 203))


def _raw_sets(count, seed, sizes=(2, 6), below=120):
    """``count`` seeded raw sets of ``sizes`` integers below ``below`` with gcd 1."""
    rng = random.Random(seed)
    while count:
        raw = [rng.randrange(2, below) for _ in range(rng.randint(*sizes))]
        if gcd(*raw) == 1:
            count -= 1
            yield raw


def _assert_matches_dp(raw):
    """new_monoid keeps g iff the DP gives M(g) = 1 over the raw set, and
    the window fill of the result equals the DP's over the window."""
    gens = sorted(set(raw))
    max_table, _, _ = oracles.dp_fill(gens, gens[-1])
    S = new_monoid(raw)
    assert S.generators == tuple(g for g in gens if max_table[g] == 1)
    t = WindowTables(S.generators)
    columns = list(t.columns(0, t.limit))
    joined = tuple(array("i", chain.from_iterable(c[i] for c in columns)) for i in (1, 2))
    assert (*joined, t.frobenius) == oracles.dp_fill(S.generators, t.limit)
    return S


def test_fill_matches_dp_on_seeded_monoids():
    raws = [*_raw_sets(300, seed=16), *_raw_sets(12, seed=19, sizes=(7, 7), below=200)]
    sizes = {len(_assert_matches_dp(raw).generators) for raw in raws}
    assert sizes == {2, 3, 4, 5, 6, 7}


@pytest.mark.parametrize("raw", [[1], [1, 2], [3, 1, 7], [1, 5, 6, 119], *LADDER])
def test_fill_matches_dp_on_fixed_sets(raw):
    # raw sets containing 1 normalize to <1>, whose window is the one entry 0
    _assert_matches_dp(raw)


def _assert_point_queries_match_dp(S, rng):
    """frobenius, contains, max_length, min_length and elasticity of ``S``
    against the DP at every n up to the window, and past it, up to 10**12,
    against the DP's last entries stepped forward by the recurrences."""
    gens = S.generators
    g1, gk = gens[0], gens[-1]
    window = (gk - 1) * gens[-2] if len(gens) > 1 else 0
    maxs, mins, gap = oracles.dp_fill(gens, window)
    assert frobenius(S) == gap
    for n in range(window + 1):
        big, small = maxs[n], mins[n]
        assert contains(S, n) == (big >= 0)
        if big >= 0:
            ratio = Fraction(big, small) if n else 1
            assert (max_length(S, n), min_length(S, n), elasticity(S, n)) == (big, small, ratio)
        else:
            with pytest.raises(NotInMonoid):
                max_length(S, n)
            with pytest.raises(NotInMonoid):
                min_length(S, n)
    past = [window + 1 + i for i in range(2 * gk)]
    past += [rng.randrange(window + 1, 10 ** rng.randint(6, 12)) for _ in range(200)] + [10**12]
    for n in past:
        up = (n - window + g1 - 1) // g1
        down = (n - window + gk - 1) // gk
        big, small = maxs[n - up * g1] + up, mins[n - down * gk] + down
        assert contains(S, n)
        assert (max_length(S, n), min_length(S, n), elasticity(S, n)) == (big, small, Fraction(big, small))


def test_point_queries_match_dp_on_seeded_monoids():
    rng = random.Random(19)
    numelast.clear_caches()
    assert window_tables.cache_info().currsize == 0
    seven = ([8, 9, 10, 11, 12, 13, 15], [14, 17, 20, 23, 26, 29, 32])
    raws = [[1], *LADDER, *seven, *_raw_sets(40, seed=19, below=60)]
    sizes = set()
    for raw in raws:
        S = new_monoid(raw)
        sizes.add(len(S.generators))
        _assert_point_queries_match_dp(S, rng)
    assert sizes == {1, 2, 3, 4, 5, 6, 7}


def test_point_queries_build_no_window_arrays():
    # <501,777,1003> has a window of 778,555 entries: its two arrays of
    # 32-bit lengths take 6.2 MB, its breakpoints (501 mod g_1, 2,496 mod
    # g_k) and the heap of one pass far less
    S = new_monoid([501, 777, 1003])
    numelast.clear_caches()
    tracemalloc.start()
    try:
        answers = frobenius(S), contains(S, 1000), max_length(S, 10**6), min_length(S, 5010)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert answers == (34802, False, 1992, 10)
    assert peak < 1_000_000

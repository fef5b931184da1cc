"""Property tests of normalization and the cached window tables against tests/oracles.py.

Lengths are checked against the full-range recurrence oracle, which knows no
windows, step-backs or caches; its agreement with the enumeration oracle is
tested in test_factorizations.py.  Enumeration itself is too slow here: at
five generators near 40 it takes seconds per monoid.  The window fill itself
is checked entry by entry against the one-atom dynamic program
``oracles.dp_fill``.
"""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numelast
from numelast import NotInMonoid, contains, frobenius, iter_lengths, max_length, min_length, new_monoid
from numelast.monoid import TABLE_CACHE_SIZE, WindowTables, window_tables

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


# the monoids of the command-line ladder the benchmark runs
LADDER = ((7, 12, 17, 22), (31, 57, 73, 101), (101, 157, 203))


def _raw_sets(count, seed):
    """``count`` seeded raw sets of 2-6 integers below 120 with gcd 1."""
    rng = random.Random(seed)
    while count:
        raw = [rng.randrange(2, 120) for _ in range(rng.randint(2, 6))]
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
    assert (t.max_table, t.min_table, t.frobenius) == oracles.dp_fill(S.generators, t.limit)
    return S


def test_fill_matches_dp_on_seeded_monoids():
    sizes = {len(_assert_matches_dp(raw).generators) for raw in _raw_sets(300, seed=16)}
    assert sizes == {2, 3, 4, 5, 6}


@pytest.mark.parametrize("raw", [[1], [1, 2], [3, 1, 7], [1, 5, 6, 119], *LADDER])
def test_fill_matches_dp_on_fixed_sets(raw):
    # raw sets containing 1 normalize to <1>, whose window is the one entry 0
    _assert_matches_dp(raw)

"""Property tests of contains_elasticity, which scans distinct tail starts.

The reference below scans every tail sequence, one per residue class modulo
g_1 g_k; contains_elasticity must return the same (found, witness) pair.
Witnesses are checked against elasticity() and, for finite-part hits,
against the smallest element in the recurrence oracle.
"""

from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from numelast import build_profile, contains_elasticity, elasticity, new_monoid, sequence_value

import oracles
from test_compare_reference import columns

raw_sets = st.lists(st.integers(1, 40), min_size=2, max_size=5).filter(lambda raw: gcd(*raw) == 1)
bounded = settings(derandomize=True, max_examples=30, deadline=None)


def _full_scan(profile, q):
    q = Fraction(q)
    if q < 1 or q > profile.limit:
        return False, None
    for value, witness in profile.finite_part.items():
        if value == q:
            return True, witness
    g1, gk = profile.monoid.g1, profile.monoid.gk
    if q == profile.limit:
        return True, g1 * gk
    for i, (big, small) in enumerate(columns(profile)):
        # q (m0 + t g_1) = M0 + t g_k
        t, rem = divmod(
            q.denominator * big - q.numerator * small,
            q.numerator * g1 - q.denominator * gk,
        )
        if rem == 0 and t >= 0:
            return True, profile.base + i + t * profile.period
    return False, None


def _queries(data, profile):
    g1, gk = profile.monoid.g1, profile.monoid.gk
    queries = data.draw(st.lists(st.sampled_from(list(profile.finite_part)), max_size=15))
    steps = st.tuples(st.integers(0, profile.period - 1), st.integers(0, 60))
    queries += [sequence_value(profile, i, t) for i, t in data.draw(st.lists(steps, max_size=15))]
    for den in data.draw(st.lists(st.integers(1, 500), max_size=15)):
        queries.append(Fraction(data.draw(st.integers(den, den * gk // g1)), den))
    return queries


@bounded
@given(raw_sets, st.data())
def test_membership_matches_full_scan_and_witnesses_round_trip(raw, data):
    S = new_monoid(raw)
    assume(len(S.generators) >= 2)
    profile = build_profile(S)
    firsts = {}
    for i, start in enumerate(columns(profile)):
        firsts.setdefault(start, i)
    assert list(profile.starts.items()) == list(firsts.items())  # in order of first appearance
    # contains_elasticity solves the tails only below the limit: the finite
    # part always holds the limit, with a witness at most g_1 g_k
    assert profile.limit in profile.finite_part and profile.finite_part[profile.limit] <= S.g1 * S.gk
    smallest = {}  # value -> smallest element, over the finite part's range
    values = oracles.recurrence_elasticity_map(S.generators, profile.base + profile.period - 1)
    for n, value in values.items():  # in increasing n
        smallest.setdefault(value, n)
    # every value, its order and its smallest witness
    assert list(profile.finite_part.items()) == sorted(smallest.items())
    for q in _queries(data, profile):
        found, witness = contains_elasticity(profile, q)
        assert (found, witness) == _full_scan(profile, q)
        if found:
            assert elasticity(S, witness) == q
            if q in profile.finite_part:
                assert witness == smallest[q]

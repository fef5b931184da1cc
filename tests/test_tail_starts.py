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

raw_sets = st.lists(st.integers(1, 40), min_size=2, max_size=5).filter(lambda raw: gcd(*raw) == 1)
bounded = settings(derandomize=True, max_examples=30, deadline=None)


def _full_scan(profile, q):
    q = Fraction(q)
    if q < 1 or q > profile.limit:
        return False, None
    for value, witness in profile.finite_part:
        if value == q:
            return True, witness
    g1, gk = profile.monoid.g1, profile.monoid.gk
    if q == profile.limit:
        return True, g1 * gk
    for seq in profile.sequences:
        # q (m0 + t g_1) = M0 + t g_k
        t, rem = divmod(
            q.denominator * seq.max0 - q.numerator * seq.min0,
            q.numerator * g1 - q.denominator * gk,
        )
        if rem == 0 and t >= 0:
            return True, seq.n0 + t * profile.period
    return False, None


def _queries(data, profile):
    g1, gk = profile.monoid.g1, profile.monoid.gk
    queries = [v for v, _ in data.draw(st.lists(st.sampled_from(profile.finite_part), max_size=15))]
    steps = st.tuples(st.integers(0, len(profile.sequences) - 1), st.integers(0, 60))
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
    for i, seq in enumerate(profile.sequences):
        firsts.setdefault((seq.max0, seq.min0), i)
    assert list(profile.starts.items()) == list(firsts.items())  # in order of first appearance
    smallest = {}  # value -> smallest element, over the finite part's range
    values = oracles.recurrence_elasticity_map(S.generators, profile.base + profile.period - 1)
    for n, value in values.items():  # in increasing n
        smallest.setdefault(value, n)
    finite = {value for value, _ in profile.finite_part}
    for q in _queries(data, profile):
        found, witness = contains_elasticity(profile, q)
        assert (found, witness) == _full_scan(profile, q)
        if found:
            assert elasticity(S, witness) == q
            if q in finite:
                assert witness == smallest[q]

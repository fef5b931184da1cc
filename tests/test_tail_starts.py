"""Property tests of contains_elasticity, which solves tails on an index of
tail lines.

The references are a scan of every tail sequence, one per residue class
modulo g_1 g_k, below, and the start scan oracles.start_scan_membership;
contains_elasticity must return the same (found, witness) pair as both.
Witnesses are checked against elasticity() and, for finite-part hits,
against the smallest element in the recurrence oracle.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from numelast import build_profile, contains_elasticity, elasticity, new_monoid, sequence_value

import oracles
from profile_helpers import _CountingLines, columns, finite_values, replaced

raw_sets = st.lists(st.integers(1, 40), min_size=2, max_size=5).filter(lambda raw: gcd(*raw) == 1)
bounded = settings(derandomize=True, max_examples=30, deadline=None)


def _full_scan(profile, finite, q):
    q = Fraction(q)
    if q < 1 or q > profile.limit:
        return False, None
    for value, witness in finite.items():
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


def _queries(data, profile, finite):
    g1, gk = profile.monoid.g1, profile.monoid.gk
    queries = data.draw(st.lists(st.sampled_from(list(finite)), max_size=15))
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
    finite = finite_values(profile)
    assert profile.limit in finite and finite[profile.limit] <= S.g1 * S.gk
    smallest = {}  # value -> smallest element, over the finite part's range
    values = oracles.recurrence_elasticity_map(S.generators, profile.base + profile.period - 1)
    for n, value in values.items():  # in increasing n
        smallest.setdefault(value, n)
    # every value, its order and its smallest witness
    assert list(finite.items()) == sorted(smallest.items())
    for q in _queries(data, profile, finite):
        found, witness = contains_elasticity(profile, q)
        assert (found, witness) == _full_scan(profile, finite, q)
        if found:
            assert elasticity(S, witness) == q
            if q in finite:
                assert witness == smallest[q]


# the monoids of the benchmark's profile-queries workload
QUERY_MONOIDS = ((31, 57, 73, 101), (101, 157, 203), (211, 307, 401))


def _line(S, start):
    big, small = start
    return S.gk * small - S.g1 * big


def _traced(profile, q):
    """contains_elasticity(profile, q) and whether it walked the multiples of
    its line step (True) or passed over every line (False)."""
    lines = _CountingLines(profile.lines)
    result = contains_elasticity(replaced(profile, lines=lines), q)
    return result, lines.passes == 0


def _seeded_queries(rng, profile, finite):
    S, period = profile.monoid, profile.period
    g1, gk = S.g1, S.gk
    finite = list(finite)
    queries = rng.sample(finite, min(len(finite), 20))
    for _ in range(25):
        queries.append(sequence_value(profile, rng.randrange(period), rng.randint(0, 60)))
    for _ in range(25):  # log-spread steps up to 10^6
        queries.append(sequence_value(profile, rng.randrange(period), int(10 ** rng.uniform(0, 6))))
    for _ in range(30):
        den = rng.randint(1, 10**4)
        queries.append(Fraction(rng.randint(den, den * gk // g1), den))
    limit = Fraction(gk, g1)
    queries += [1, Fraction(1), limit, limit + Fraction(1, 10**6), Fraction(10**4 - 1, 10**4)]
    return queries


def _seeded_monoids(rng, count):
    monoids = []
    while len(monoids) < count:
        raw = rng.sample(range(2, 60), rng.randint(2, 5))
        S = new_monoid(raw) if gcd(*raw) == 1 else None
        if S is not None and len(S.generators) >= 2:
            monoids.append(S)
    return monoids


def test_membership_matches_start_scan_oracle_on_seeded_queries():
    rng = random.Random(20141)
    monoids = [new_monoid(gens) for gens in QUERY_MONOIDS] + _seeded_monoids(rng, 40)
    paths = {True: 0, False: 0}  # walk, pass over every line
    for S in monoids:
        profile = build_profile(S)
        finite = finite_values(profile)
        for q in _seeded_queries(rng, profile, finite):
            (found, witness), walked = _traced(profile, q)
            scanned = oracles.start_scan_membership(profile, finite, q)
            assert (found, witness) == scanned, (S.generators, q)
            assert (found, witness) == contains_elasticity(profile, q)
            if found:
                assert elasticity(S, witness) == q
            q = Fraction(q)
            if 1 < q < profile.limit and q not in finite:
                paths[walked] += 1
    assert paths[True] >= 50 and paths[False] >= 50, paths


def _colliding_queries(rng, profile, finite):
    """Queries (num N +- 1)/(den N) next to sampled finite values num/den,
    with N = 2 K den, K the profile's key scale: q K lies within 1/(2 den^2)
    of num K/den, so q takes that value's key, on the side below only when
    num K/den is not an integer."""
    K = profile.key_scale
    values = rng.sample(list(finite), min(len(finite), 40))
    queries = []
    for v in values:
        num, den = v.numerator, v.denominator
        N = 2 * K * den
        queries.append((v, Fraction(num * N + 1, den * N)))
        if num * K % den:
            queries.append((v, Fraction(num * N - 1, den * N)))
    return queries


@pytest.mark.parametrize("gens", [(7, 12, 17, 22), (31, 57, 73, 101), (101, 157, 203)])
def test_finite_key_collisions_are_confirmed_exactly(gens):
    # a query that shares a finite value's integer key without equalling it
    # must not take that value's witness; the oracle reads the finite part
    # keyed by Fraction and shares no code with the key lookup
    rng = random.Random(22)
    profile = build_profile(new_monoid(gens))
    K, finite = profile.key_scale, finite_values(profile)

    def scan(q):
        return oracles.start_scan_membership(profile, finite, q)

    collisions = _colliding_queries(rng, profile, finite)
    assert len(collisions) > 40
    for v, q in collisions:
        assert q != v and q.numerator * K // q.denominator == v.numerator * K // v.denominator
        assert contains_elasticity(profile, q) == scan(q), (gens, q)
        assert contains_elasticity(profile, v) == (True, finite[v])
    for q in (1, 1.5, Fraction(3, 2), 2):
        assert contains_elasticity(profile, q) == scan(q), (gens, q)


def test_build_and_finite_hits_make_no_fraction(monkeypatch):
    # the finite part is kept and looked up in integers: a build and a
    # finite-part hit on a Fraction the caller already holds make none, and
    # finite_part makes one per value
    made = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr("numelast.profile.Fraction", CountingFraction)
    for gens in ((7, 12, 17, 22), (31, 57, 73, 101)):
        profile = build_profile(new_monoid(gens))
        assert made == []
        values = list(profile.finite_part)
        assert len(made) == len(profile.finite)
        made.clear()
        for q in values:
            assert contains_elasticity(profile, q)[0]
        assert made == []


def test_line_index_holds_every_non_flat_start_once():
    # the lines list the non-flat starts grouped by J = g_k m0 - g_1 M0, in
    # increasing J and within a line in starts order; flat starts (J = 0)
    # never enter it
    rng = random.Random(4)
    monoids = [new_monoid(gens) for gens in QUERY_MONOIDS] + _seeded_monoids(rng, 10)
    for S in monoids:
        profile = build_profile(S)
        flat = [start for start in profile.starts if _line(S, start) == 0]
        assert flat  # n = c g_1 g_k in the window is flat
        expected = sorted(
            ((_line(S, start), start[1], i) for start, i in profile.starts.items() if start not in flat),
            key=lambda entry: entry[0],
        )
        indexed = [
            (J, line[k], line[k + 1]) for J, line in profile.lines.items() for k in range(0, len(line), 2)
        ]
        assert indexed == expected
        assert min(profile.lines) > 0


@pytest.mark.parametrize("t, smallest_class", [(2, 75), (4, 0)])
def test_witness_is_the_hit_start_of_smallest_first_class(t, smallest_class):
    # On <211,307,401>, 37 of the 2,677 lines hold two starts, and class
    # 84306 (m0 = 521) is the second start on line 1508, after class 75
    # (m0 = 310): its ray is class 75's from step 1 on.  At step 2 the hit
    # start of smallest first class is class 75 on the same line.  At step
    # 4 the value also lies on other lines; the walk meets line 1044 (class
    # 961) first, but the witness must come from class 0 on line 2204.
    S = new_monoid((211, 307, 401))
    profile = build_profile(S)
    g1, gk = S.g1, S.gk
    assert len(profile.lines) == 2677
    assert sum(len(line) == 4 for line in profile.lines.values()) == 37
    assert profile.lines[1508] == (310, 75, 521, 84306)
    q = sequence_value(profile, 84306, t)
    assert q not in finite_values(profile)
    u = q.denominator * gk - q.numerator * g1
    hits = []  # (J, first class, step t) of every start that attains q, in walk order
    for start, i in profile.starts.items():
        big, small = start
        tn = q.numerator * small - q.denominator * big  # t u
        if tn % u == 0 and tn >= 0:
            hits.append((_line(S, start), i, tn // u))
    hits.sort()
    smallest = min(hits, key=lambda hit: hit[1])
    assert smallest[1] == smallest_class
    assert {(1508, 75), (1508, 84306)} <= {hit[:2] for hit in hits}
    if smallest_class == 0:
        assert hits[0][:2] == (1044, 961)  # the first line the walk finds
        assert (2204, 0) in {hit[:2] for hit in hits}
    witness = profile.base + smallest[1] + smallest[2] * profile.period
    assert _traced(profile, q) == ((True, witness), True)
    assert oracles.start_scan_membership(profile, finite_values(profile), q) == (True, witness)
    assert elasticity(S, witness) == q


@pytest.mark.parametrize("q, J, m0, y", [(Fraction(9, 8), 1430, 218, 16), (Fraction(31, 23), 1538, 225, 23)])
def test_line_point_before_its_ray_start_is_no_hit(q, J, m0, y):
    # On <101,157,203>, q sits on line J at y = m0 - 2 g_1: in the residue of
    # the ray of start m0 but before its step 0, and on no other ray
    S = new_monoid((101, 157, 203))
    profile = build_profile(S)
    assert m0 in profile.lines[J][::2] and y == m0 - 2 * S.g1
    assert q == Fraction(S.gk * y - J, S.g1 * y)
    assert _traced(profile, q) == ((False, None), True)
    assert oracles.start_scan_membership(profile, finite_values(profile), q) == (False, None)

import hashlib
import json
import os
import random
import subprocess
import sys
from array import array
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import numelast
from numelast import (
    IndexOutOfRange,
    InternalInconsistency,
    SingleGenerator,
    TableTooLarge,
    build_profile,
    compare_built_profiles,
    compare_profiles,
    contains_elasticity,
    elasticity,
    iter_lengths,
    max_length,
    min_length,
    new_monoid,
    profile_json_pieces,
    profile_to_json,
    sequence_value,
)

from numelast.monoid import TABLE_CACHE_SIZE, TABLE_LIMIT, window_tables
from numelast.profile import _first_codes, _pair_codes

import oracles
from profile_helpers import field_names, finite_values, replaced, widen_columns, wrap_columns
from test_compare_reference import expand

S35 = new_monoid([3, 5])


def test_build_profile_shape():
    prof = build_profile(S35)
    assert prof.base == 15 and prof.period == 15
    i = 18 - prof.base
    n0 = prof.sequences[i]
    assert (n0, max_length(S35, n0), min_length(S35, n0)) == (18, 6, 4)
    assert sequence_value(prof, 3, 1) == Fraction(11, 7)
    assert elasticity(S35, 33) == Fraction(11, 7)


def test_build_profile_matches_row_scan_oracle():
    # the command-line ladder, <65,79,83> and 300 seeded monoids of 2 to 6
    # generators below 150; item order counts, as finite, starts and lines
    # promise it
    rng = random.Random(20)
    fixed = (7, 12, 17, 22), (31, 57, 73, 101), (101, 157, 203), (65, 79, 83)
    monoids = [new_monoid(gens) for gens in fixed]
    while len(monoids) < 304:
        raw = [rng.randrange(2, 150) for _ in range(rng.randint(2, 6))]
        if gcd(*raw) == 1 and len(new_monoid(raw).generators) > 1:
            monoids.append(new_monoid(raw))
    for S in monoids:
        prof = build_profile(S)
        rows = iter_lengths(S, 1, prof.base + prof.period - 1)
        finite, starts, lines = oracles.row_scan_profile(S.generators, rows)
        assert [(*v.as_integer_ratio(), w) for v, w in finite_values(prof).items()] == finite, S
        assert list(prof.starts.items()) == list(starts.items()), S
        assert list(prof.lines.items()) == list(lines.items()), S
    assert {len(S.generators) for S in monoids} == {2, 3, 4, 5, 6}
    # the build shifts the period's early part [N0, lo) by c + 1 periods and
    # its late part [lo, N0 + period) by c: early is non-empty at c = 0, 1
    # and at least 2
    splits = map(period_split, monoids)
    shifts = {shifted_periods(S) for S, (N0, lo, _) in zip(monoids, splits) if N0 < lo}
    assert {0, 1} <= shifts and max(shifts) >= 2
    examples = (3, 5), (101, 157, 203), (7, 12, 17, 22)
    assert [shifted_periods(new_monoid(gens)) for gens in examples] == [0, 1, 2]
    # the period scan of <65,79,83> crosses a column chunk: the first chunk,
    # 64 g_k = 5,312 rows from n = 1, ends inside late = [1162, 6547)
    S = new_monoid([65, 79, 83])
    assert period_split(S) == (1152, 1162, 6547)
    assert [start for start, _, _ in window_tables(S.generators).columns(1, 6546)] == [1, 5313]


def last_breakpoint(S):
    """N0, the largest last breakpoint over the classes of both moduli, as
    the monoid's tables give it to build_profile."""
    return window_tables(S.generators).last_breakpoint()


def shifted_periods(S):
    """c, the whole periods between the monoid's largest last breakpoint N0
    and base."""
    base, period = S.generators[-2] * S.gk, S.g1 * S.gk
    return (base - last_breakpoint(S)) // period


def period_split(S):
    """(N0, lo, N0 + period), lo = base - c period: a build reads [1, N0 +
    period) and shifts early = [N0, lo) by c + 1 periods, late = [lo, N0 +
    period) by c."""
    N0, period = last_breakpoint(S), S.g1 * S.gk
    return N0, S.generators[-2] * S.gk - shifted_periods(S) * period, N0 + period


def test_recurrences_hold_from_the_last_breakpoint():
    # the shift rests on M(n + g_1) = M(n) + 1 and m(n + g_k) = m(n) + 1 for
    # every n >= N0, checked here against exhaustive enumeration; and at N0,
    # a breakpoint, the recurrence of its own modulus fails: N0 - g_1 is no
    # member or M jumps by more than 1, or N0 - g_k is no member or m rises
    # by less than 1
    rng = random.Random(28)
    monoids = [new_monoid(gens) for gens in ((3, 5), (7, 12, 17, 22), (4, 9, 11))]
    while len(monoids) < 30:
        raw = [rng.randrange(2, 25) for _ in range(rng.randint(2, 4))]
        if gcd(*raw) == 1 and len(new_monoid(raw).generators) > 1:
            monoids.append(new_monoid(raw))
    for S in monoids:
        g1, gk, N0 = S.g1, S.gk, last_breakpoint(S)
        tables = window_tables(S.generators)
        lasts = [ramps[-1][0] for ramps in tables.max_breaks + tables.min_breaks]
        assert N0 == max(lasts), S
        end = N0 + 2 * g1 * gk
        maxs, mins = oracles.length_arrays(S.generators, end + gk)
        for n in range(N0, end + 1):
            assert (maxs[n + g1], mins[n + gk]) == (maxs[n] + 1, mins[n] + 1), (S, n)
        if tables.max_breaks[N0 % g1][-1][0] == N0:
            assert N0 < g1 or maxs[N0 - g1] < 0 or maxs[N0] > maxs[N0 - g1] + 1, S
        if tables.min_breaks[N0 % gk][-1][0] == N0:
            assert N0 < gk or maxs[N0 - gk] < 0 or mins[N0] < mins[N0 - gk] + 1, S


def test_build_profile_reads_from_the_last_breakpoint(monkeypatch):
    # <211,307,401>: N0 = 16,386 and c = 1, so lo = base - period = 38,496;
    # the build reads N0 + period - 1 = 100,996 rows, not lo + period - 1
    # = 123,106 or base + period - 1 = 207,717; <20,21,45> has c = 0 and
    # reads N0 + period - 1 = 1,298 rows, not base + period - 1 = 1,844
    rows = []

    def counted(columns, lo, hi):
        for chunk in columns(lo, hi):
            rows.append(len(chunk[1]))
            yield chunk

    wrap_columns(monkeypatch, counted)
    prof = build_profile(new_monoid([211, 307, 401]))
    assert shifted_periods(prof.monoid) == 1
    assert period_split(prof.monoid) == (16_386, 38_496, 100_997)
    assert prof.base + prof.period - 1 == 207_717
    assert sum(rows) == 100_996
    rows.clear()
    prof = build_profile(new_monoid([20, 21, 45]))
    assert shifted_periods(prof.monoid) == 0
    assert prof.base + prof.period - 1 == 1_844
    assert sum(rows) == 1_298


def test_profile_rejects_single_generator():
    with pytest.raises(SingleGenerator):
        build_profile(new_monoid([1]))


def test_finite_part_contains_one_with_witness_g1():
    for gens in [(3, 5), (7, 12, 17, 22), (20, 21, 45)]:
        prof = build_profile(new_monoid(gens))
        assert finite_values(prof)[Fraction(1)] == gens[0]


def test_sequences_cover_window_and_members():
    prof = build_profile(S35)
    assert list(prof.sequences) == list(range(15, 30))
    S = new_monoid([7, 12, 17, 22])
    prof2 = build_profile(S)
    assert len(prof2.sequences) == prof2.period
    for i, n0 in enumerate(prof2.sequences):
        assert n0 == prof2.base + i
        start = (max_length(S, n0), min_length(S, n0))
        assert sequence_value(prof2, i, 0) == Fraction(*start)
        assert prof2.starts[start] <= i


def test_window_check_survives_optimize_flag():
    # under python -O a table pass that puts an Apery element at the
    # window's last entry must still raise the typed error, not slip
    # through a stripped assert; new_monoid's pass, whose limit is its
    # largest part, is left alone
    code = (
        "import sys\n"
        "from numelast import InternalInconsistency, build_profile, new_monoid\n"
        "monoid = sys.modules['numelast.monoid']\n"
        "passes = monoid._breakpoints\n"
        "def breakpoints(mod, parts, limit, sign):\n"
        "    breaks = passes(mod, parts, limit, sign)\n"
        "    if sign < 0 and limit > parts[-1]:\n"
        "        breaks[limit % mod] = [(limit, 0)]\n"
        "    return breaks\n"
        "monoid._breakpoints = breakpoints\n"
        "monoid.window_tables.cache_clear()\n"
        "try:\n"
        "    build_profile(new_monoid([3, 5]))\n"
        "except InternalInconsistency:\n"
        "    print('typed', sys.flags.optimize)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["typed", "1"]


@pytest.mark.parametrize("widen", [lambda c: array("q", c), list], ids=["q", "list"])
def test_build_profile_refuses_columns_other_than_int32(monkeypatch, widen):
    # the pair code is exact only for array('i') columns; any other column
    # is a library fault, with no fallback path
    widen_columns(monkeypatch, widen)
    with pytest.raises(InternalInconsistency, match=r"not array\('i'\)"):
        build_profile(new_monoid([3, 5]))


def test_pair_code_round_trips_extreme_lengths():
    # lengths 0, 1 and 2**31 - 1 in either half, which the seeded oracle
    # tests never reach, catch a sign or half-swap in the packing
    edge = (0, 1, 2**31 - 1)
    pairs = [(big, small) for big in edge for small in edge]
    big = array("i", [M for M, _ in pairs] + [-1])
    small = array("i", [m for _, m in pairs] + [-1])
    codes = list(_pair_codes(big, small))
    assert [divmod(code, 2**32) for code in codes[:-1]] == pairs
    assert len(set(codes)) == len(codes)
    # the same ten rows in three chunks from n = 100, the gap pair (-1, -1),
    # the one code _first_codes drops, last in each; one pass serves the
    # cuts, which give an empty range at 104, as a build whose lo is N0
    # has, one range ending at the chunk seam 110 and one crossing 120
    calls = []

    class Chunks:
        def columns(self, lo, hi):
            calls.append((lo, hi))
            return iter([(start, big, small) for start in (100, 110, 120)])

    found = _first_codes(Chunks(), (100, 104, 104, 110, 125, 130))
    assert calls == [(100, 129)]
    assert codes[-1] == -1
    assert found == [
        {code: 100 + i for i, code in enumerate(codes[:4])},
        {},
        {code: 100 + i for i, code in enumerate(codes[:-1]) if i >= 4},
        {code: 110 + i for i, code in enumerate(codes[:-1])},
        {code: 120 + i for i, code in enumerate(codes[:-1]) if i >= 5},
    ]


def test_sequence_value_examples_and_errors():
    prof = build_profile(S35)
    assert sequence_value(prof, 3, 0) == Fraction(3, 2)
    assert sequence_value(prof, 3, 1) == Fraction(11, 7)
    with pytest.raises(IndexOutOfRange):
        sequence_value(prof, 15, 0)
    with pytest.raises(IndexOutOfRange):
        sequence_value(prof, 0, -1)
    for index, t in ((3.0, 0), ("3", 0), (3, 1.0), (3, "1")):
        with pytest.raises(TypeError):
            sequence_value(prof, index, t)


def test_sequences_increase_toward_limit():
    for gens in [(3, 5), (7, 12, 17, 22), (7, 41)]:
        S = new_monoid(gens)
        prof = build_profile(S)
        top = prof.limit
        g1, gk = gens[0], gens[-1]
        for idx, n0 in enumerate(prof.sequences):
            prev = sequence_value(prof, idx, 0)
            assert (max_length(S, n0) * g1 == min_length(S, n0) * gk) == (prev == top)
            for t in range(1, 40):
                cur = sequence_value(prof, idx, t)
                if prev < top:
                    assert prev < cur <= top
                else:
                    assert cur == top
                prev = cur


def test_sequence_gap_bounded_by_reciprocal_steps():
    # |value(t) - g_k/g_1| <= g_k * M0 / t for every sequence
    for gens in [(3, 5), (7, 41), (7, 12, 17, 22)]:
        S = new_monoid(gens)
        prof = build_profile(S)
        top = prof.limit
        gk = gens[-1]
        for idx, n0 in enumerate(prof.sequences):
            for t in (1, 7, 100, 1000):
                gap = top - sequence_value(prof, idx, t)
                assert 0 <= gap <= Fraction(gk * max_length(S, n0), t)


def test_values_below_any_margin_are_finitely_many():
    # away from the limit each sequence contributes a bounded head;
    # the slack interval near the limit keeps collecting points forever
    prof = build_profile(S35)
    top = prof.limit
    margin = Fraction(1, 10)
    for idx, n0 in enumerate(prof.sequences):
        if max_length(S35, n0) * 3 == min_length(S35, n0) * 5:  # flat at the limit 5/3
            continue
        crossed = False
        for t in range(200):
            if sequence_value(prof, idx, t) > top - margin:
                crossed = True
                break
        assert crossed
    late = {sequence_value(prof, idx, 500) for idx in range(prof.period)}
    assert all(v > top - margin for v in late)


def test_contains_elasticity_examples():
    prof = build_profile(S35)
    assert contains_elasticity(prof, Fraction(5, 3)) == (True, 15)
    assert contains_elasticity(prof, Fraction(6, 5)) == (False, None)
    assert contains_elasticity(prof, 1) == (True, 3)
    # an int or a float is converted exactly, like a Fraction
    assert contains_elasticity(prof, 1.5) == contains_elasticity(prof, Fraction(3, 2))
    assert contains_elasticity(prof, 1.5)[0]
    assert contains_elasticity(prof, Fraction(1, 2)) == (False, None)
    assert contains_elasticity(prof, Fraction(7, 3)) == (False, None)


def test_contains_six_fifths_truly_absent():
    values = set(oracles.elasticity_map((3, 5), 5000).values())
    assert Fraction(6, 5) not in values


def test_contains_elasticity_witnesses_verify():
    for gens in [(3, 5), (7, 12, 17, 22)]:
        S = new_monoid(gens)
        prof = build_profile(S)
        seen = set(oracles.recurrence_elasticity_map(gens, 2500).values())
        for value in seen:
            found, witness = contains_elasticity(prof, value)
            assert found
            assert elasticity(S, witness) == value


def test_profile_decomposition_matches_bruteforce():
    for gens in [(3, 5), (2, 3), (7, 12, 17, 22)]:
        S = new_monoid(gens)
        prof = build_profile(S)
        finite = finite_values(prof)
        bound = prof.base + 10 * prof.period
        rho = oracles.elasticity_map(gens, bound)
        for n, value in rho.items():
            if n < prof.base:
                assert value in finite
            else:
                idx = (n - prof.base) % prof.period
                t = (n - prof.base) // prof.period
                assert sequence_value(prof, idx, t) == value


def test_window_shift_identity():
    # rho(n + t*period) == (M(n) + t*g_k) / (m(n) + t*g_1) on the window
    for gens in [(3, 5), (7, 12, 17, 22)]:
        S = new_monoid(gens)
        prof = build_profile(S)
        g1, gk = gens[0], gens[-1]
        for n in range(prof.base, prof.base + prof.period):
            M0, m0 = max_length(S, n), min_length(S, n)
            for t in range(1, 11):
                assert elasticity(S, n + t * prof.period) == Fraction(
                    M0 + t * gk, m0 + t * g1
                )


def test_compare_profiles_equal_fixture():
    p1, p2 = (build_profile(new_monoid(gens)) for gens in ([6, 10, 13, 14], [6, 11, 13, 14]))
    assert len(p1.starts) == 31 and len(p2.starts) == 31
    for t_max in (30, 50):
        verdict = compare_profiles(p1.monoid, p2.monoid, t_max)
        assert verdict.outcome == "equal"
        assert verdict.witness is None
        forward, backward = verdict.certificate
        # one alignment per distinct tail start; 84 = 6 * 14 residue classes
        assert len(forward) == 31 and len(backward) == 31
        assert len(expand(p1, forward)) == 84 and len(expand(p2, backward)) == 84
        assert all(a.alpha >= 1 and a.t0 <= t_max for a in forward + backward)


def test_compare_profiles_not_equal_fixture():
    S = new_monoid([14, 17, 20, 23, 26, 29, 32])
    Sp = new_monoid([7, 10, 13, 16])
    p1, p2 = build_profile(S), build_profile(Sp)
    verdict = compare_built_profiles(p1, p2, 50)
    assert (verdict.outcome, verdict.reason) == ("not_equal", "cross-check")
    # smallest value in the symmetric difference under the bounded scan
    assert verdict.witness == Fraction(34, 19)
    assert contains_elasticity(p1, verdict.witness)[0] != contains_elasticity(p2, verdict.witness)[0]
    # two progressions: compare_profiles answers by the theorem, with the
    # coprime maximal tuple's value, which also separates the two sets
    theorem = compare_profiles(S, Sp, 50)
    assert (theorem.outcome, theorem.witness, theorem.reason) == (
        "not_equal", Fraction(86, 39), "theorem"
    )
    assert contains_elasticity(p1, Fraction(86, 39))[0]
    assert not contains_elasticity(p2, Fraction(86, 39))[0]


def test_compare_profiles_limit_mismatch():
    for t_max in (5, 10):
        verdict = compare_profiles(new_monoid([3, 5]), new_monoid([3, 7]), t_max)
        assert verdict.outcome == "not_equal"
        assert verdict.witness == Fraction(7, 3)


def test_compare_profiles_of_one_generator_answer_by_limits():
    # g_k/g_1 = 1 only for <1>, whose set is {1}: decided before build_profile,
    # which refuses <1>
    one = new_monoid([1])
    cases = ((one, "equal", None), (new_monoid([3, 5]), "not_equal", Fraction(5, 3)))
    for other, outcome, witness in cases:
        for verdict in (compare_profiles(one, other), compare_profiles(other, one, 0)):
            assert (verdict.outcome, verdict.witness, verdict.certificate, verdict.reason) == (
                outcome, witness, None, "limits"
            )
    with pytest.raises(IndexOutOfRange):
        compare_profiles(one, one, -1)


def test_compare_profiles_reflexive_and_symmetric():
    fixtures = [(3, 5), (6, 10, 13, 14), (7, 12, 17, 22)]
    monoids = [new_monoid(g) for g in fixtures]
    for S in monoids:
        assert compare_profiles(S, S, 10).outcome == "equal"
    for S1 in monoids:
        for S2 in monoids:
            a = compare_profiles(S1, S2, 20)
            b = compare_profiles(S2, S1, 20)
            assert a.outcome == b.outcome


class _Untouched(Exception):
    pass


class _UntouchedValues(dict):
    """A finite part that fails on first read, whichever view is read: the
    comparison has started."""

    def _untouched(self, *args):
        raise _Untouched

    __iter__ = __getitem__ = __contains__ = get = keys = values = items = _untouched


def test_compare_rejects_tmax_out_of_range(monkeypatch):
    S = new_monoid([6, 10, 13, 14])

    def no_build(monoid):
        raise AssertionError("an impossible bound must be refused before any profile is built")

    with monkeypatch.context() as patched:
        patched.setattr("numelast.profile.build_profile", no_build)
        for negative in (-1, -5):
            with pytest.raises(IndexOutOfRange):
                compare_profiles(S, S, negative)
        for not_int in (0.5, 1.0, "3"):
            with pytest.raises(TypeError):
                compare_profiles(S, S, not_int)
        # every profile has a start, so 2 (t_max + 1) > TABLE_LIMIT fails
        # any pair; <6,10,13,14> is no progression, so only the bound refuses
        for too_large in (TABLE_LIMIT // 2, 10**18):
            with pytest.raises(TableTooLarge):
                compare_profiles(S, S, too_large)
    # the bound is checked before any value is read: at the budget the
    # comparison starts, one step past it nothing is read
    prof = build_profile(S)
    poisoned = replaced(prof, finite=_UntouchedValues(prof.finite))
    t_max = TABLE_LIMIT // (2 * len(prof.starts)) - 1
    with pytest.raises(_Untouched):
        compare_built_profiles(poisoned, poisoned, t_max)
    for too_large in (t_max + 1, 10**18):
        with pytest.raises(TableTooLarge):
            compare_built_profiles(poisoned, poisoned, too_large)
    with pytest.raises(IndexOutOfRange):
        compare_built_profiles(poisoned, poisoned, -1)
    for not_int in (0.5, 1.0, "3"):
        with pytest.raises(TypeError):
            compare_built_profiles(poisoned, poisoned, not_int)


def test_certificate_identity_spot_check():
    S1 = new_monoid([6, 10, 13, 14])
    S2 = new_monoid([6, 11, 13, 14])
    p1, p2 = build_profile(S1), build_profile(S2)
    verdict = compare_profiles(S1, S2, 50)
    forward, _ = verdict.certificate
    for align in forward[:20]:
        for t in range(align.t0, align.t0 + 8):
            src = sequence_value(p1, align.source, t)
            dst = sequence_value(p2, align.target, align.alpha * t + align.beta)
            assert src == dst


def test_profile_json_golden():
    prof = build_profile(new_monoid([2, 3]))
    assert profile_to_json(prof) == (
        '{"generators":[2,3],"base":6,"period":6,'
        '"finite_part":[[1,1,2],[5,4,10],[4,3,8],[3,2,6]],'
        '"sequences":[[6,3,2],[7,3,3],[8,4,3],[9,4,3],[10,5,4],[11,5,4]]}'
    )
    # the two profile rungs of the benchmark's cli-stats ladder
    for gens, digest in [
        ((31, 57, 73, 101), "ad380e4ac8227ec27c4382033a046e522444a8924cc9e6c7415d33df925e52bc"),
        ((101, 157, 203), "335f1038ce5566a455001fd875c52208458b578eaf3b94f27986f1211085305e"),
    ]:
        text = profile_to_json(build_profile(new_monoid(gens)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, gens


def test_profile_json_pieces():
    # the header with the finite part, one piece per class, then the close
    prof = build_profile(new_monoid([2, 3]))
    assert list(profile_json_pieces(prof)) == [
        '{"generators":[2,3],"base":6,"period":6,'
        '"finite_part":[[1,1,2],[5,4,10],[4,3,8],[3,2,6]],"sequences":[',
        "[6,3,2]", ",[7,3,3]", ",[8,4,3]", ",[9,4,3]", ",[10,5,4]", ",[11,5,4]", "]}",
    ]
    prof = build_profile(new_monoid([101, 157, 203]))
    assert sum(1 for _ in profile_json_pieces(prof)) == prof.period + 2


def test_profile_stored_at_its_true_size():
    # one entry per distinct start and per finite value, none per residue class
    prof = build_profile(new_monoid([101, 157, 203]))
    assert (prof.period, len(prof.starts), len(prof.finite)) == (20503, 1085, 1749)
    values = [getattr(prof, name) for name in field_names(prof)]
    assert prof.period not in [len(v) for v in values if hasattr(v, "__len__")]


def test_profile_outputs_survive_table_eviction():
    # class starts are read from the length tables, so the outputs must not
    # depend on whether the monoid's tables are still cached
    S = new_monoid([7, 12, 17, 22])
    prof = build_profile(S)
    sample = [(i, t) for i in range(0, prof.period, 5) for t in (0, 3, 50)]

    def outputs():
        return profile_to_json(prof), [sequence_value(prof, i, t) for i, t in sample]

    expected = outputs()
    numelast.clear_caches()
    assert window_tables.cache_info().currsize == 0
    assert outputs() == expected
    built = window_tables(S.generators)
    for i in range(TABLE_CACHE_SIZE):  # generators above 22: never S
        window_tables((2, 41 + 2 * i))
    assert outputs() == expected
    assert window_tables(S.generators) is not built


def test_profile_json_schema_round_trip():
    # the reference: json.dumps of the document built from the profile's
    # finite part and the length tables, one [n, M, m] row per class
    for gens in [(2, 3), (3, 5), (7, 12, 17, 22), (31, 57, 73, 101), (101, 157, 203)]:
        prof = build_profile(new_monoid(gens))
        end = prof.base + prof.period - 1
        doc = {
            "generators": list(prof.monoid.generators),
            "base": prof.base,
            "period": prof.period,
            "finite_part": [[v.numerator, v.denominator, w] for v, w in finite_values(prof).items()],
            "sequences": [list(row) for row in iter_lengths(prof.monoid, prof.base, end)],
        }
        text = profile_to_json(prof)
        assert text == json.dumps(doc, separators=(",", ":")), gens
        assert json.loads(text) == doc
        assert len(doc["sequences"]) == prof.period
        # rationals stored reduced
        assert all(gcd(num, den) == 1 for num, den, _ in doc["finite_part"])

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from numelast import (
    IndexOutOfRange,
    SingleGenerator,
    build_profile,
    compare_profiles,
    contains_elasticity,
    elasticity,
    max_length,
    min_length,
    new_monoid,
    profile_to_dict,
    profile_to_json,
    sequence_value,
)

import oracles
from test_compare_reference import expand

S35 = new_monoid([3, 5])


def test_build_profile_shape():
    prof = build_profile(S35)
    assert prof.base == 15 and prof.period == 15
    seq = prof.sequences[18 - prof.base]
    assert (seq.n0, seq.max0, seq.min0) == (18, 6, 4)
    assert sequence_value(prof, 3, 1) == Fraction(11, 7)
    assert elasticity(S35, 33) == Fraction(11, 7)


def test_profile_rejects_single_generator():
    with pytest.raises(SingleGenerator):
        build_profile(new_monoid([1]))


def test_finite_part_contains_one_with_witness_g1():
    for gens in [(3, 5), (7, 12, 17, 22), (20, 21, 45)]:
        prof = build_profile(new_monoid(gens))
        assert prof._finite_lookup[Fraction(1)] == gens[0]


def test_sequences_cover_window_and_members():
    prof = build_profile(S35)
    assert [seq.n0 for seq in prof.sequences] == list(range(15, 30))
    S = new_monoid([7, 12, 17, 22])
    prof2 = build_profile(S)
    assert len(prof2.sequences) == prof2.period
    for seq in prof2.sequences:
        assert seq.max0 == max_length(S, seq.n0)
        assert seq.min0 == min_length(S, seq.n0)


def test_window_check_survives_optimize_flag():
    # under python -O a Frobenius number at the window base must still raise
    # the typed error, not slip through a stripped assert
    code = (
        "import sys\n"
        "from numelast import InternalInconsistency, build_profile, new_monoid\n"
        "profile = sys.modules['numelast.profile']\n"
        "profile.frobenius = lambda S: S.generators[-2] * S.gk\n"
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


def test_sequence_value_examples_and_errors():
    prof = build_profile(S35)
    assert sequence_value(prof, 3, 0) == Fraction(3, 2)
    assert sequence_value(prof, 3, 1) == Fraction(11, 7)
    with pytest.raises(IndexOutOfRange):
        sequence_value(prof, 15, 0)
    with pytest.raises(IndexOutOfRange):
        sequence_value(prof, 0, -1)


def test_sequences_increase_toward_limit():
    for gens in [(3, 5), (7, 12, 17, 22), (7, 41)]:
        prof = build_profile(new_monoid(gens))
        top = prof.limit
        for idx, seq in enumerate(prof.sequences):
            prev = sequence_value(prof, idx, 0)
            assert seq.constant == (prev == top)
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
        prof = build_profile(new_monoid(gens))
        top = prof.limit
        gk = gens[-1]
        for idx, seq in enumerate(prof.sequences):
            for t in (1, 7, 100, 1000):
                gap = top - sequence_value(prof, idx, t)
                assert 0 <= gap <= Fraction(gk * seq.max0, t)


def test_values_below_any_margin_are_finitely_many():
    # away from the limit each sequence contributes a bounded head;
    # the slack interval near the limit keeps collecting points forever
    prof = build_profile(S35)
    top = prof.limit
    margin = Fraction(1, 10)
    for idx, seq in enumerate(prof.sequences):
        if seq.constant:
            continue
        crossed = False
        for t in range(200):
            if sequence_value(prof, idx, t) > top - margin:
                crossed = True
                break
        assert crossed
    late = {sequence_value(prof, idx, 500) for idx in range(len(prof.sequences))}
    assert all(v > top - margin for v in late)


def test_contains_elasticity_examples():
    prof = build_profile(S35)
    assert contains_elasticity(prof, Fraction(5, 3)) == (True, 15)
    assert contains_elasticity(prof, Fraction(6, 5)) == (False, None)
    assert contains_elasticity(prof, 1) == (True, 3)
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
        bound = prof.base + 10 * prof.period
        rho = oracles.elasticity_map(gens, bound)
        for n, value in rho.items():
            if n < prof.base:
                assert value in prof._finite_lookup
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
    verdict = compare_profiles(new_monoid([6, 10, 13, 14]), new_monoid([6, 11, 13, 14]), 50)
    assert verdict.outcome == "equal"
    assert verdict.witness is None
    forward, backward = verdict.certificate
    # one alignment per distinct tail start; 84 = 6 * 14 residue classes
    assert len(forward) == 31 and len(backward) == 31
    p1, p2 = (build_profile(new_monoid(gens)) for gens in ([6, 10, 13, 14], [6, 11, 13, 14]))
    assert len(p1.starts) == 31 and len(p2.starts) == 31
    assert len(expand(p1, forward)) == 84 and len(expand(p2, backward)) == 84
    assert all(a.alpha >= 1 and a.t0 <= 50 for a in forward + backward)


def test_compare_profiles_not_equal_fixture():
    S = new_monoid([14, 17, 20, 23, 26, 29, 32])
    Sp = new_monoid([7, 10, 13, 16])
    verdict = compare_profiles(S, Sp, 50)
    assert verdict.outcome == "not_equal"
    # smallest value in the symmetric difference under the bounded scan
    assert verdict.witness == Fraction(34, 19)
    p1, p2 = build_profile(S), build_profile(Sp)
    assert contains_elasticity(p1, verdict.witness)[0] != contains_elasticity(p2, verdict.witness)[0]
    # the coprime maximal tuple's value also separates the two sets
    assert contains_elasticity(p1, Fraction(86, 39))[0]
    assert not contains_elasticity(p2, Fraction(86, 39))[0]


def test_compare_profiles_limit_mismatch():
    verdict = compare_profiles(new_monoid([3, 5]), new_monoid([3, 7]), 5)
    assert verdict.outcome == "not_equal"
    assert verdict.witness == Fraction(7, 3)


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


def test_profile_json_schema_round_trip():
    prof = build_profile(S35)
    doc = json.loads(profile_to_json(prof))
    assert list(doc) == ["generators", "base", "period", "finite_part", "sequences"]
    assert doc == profile_to_dict(prof)
    assert doc["generators"] == [3, 5]
    assert all(len(row) == 3 for row in doc["finite_part"])
    assert all(len(row) == 3 for row in doc["sequences"])
    # rationals stored reduced
    from math import gcd

    assert all(gcd(num, den) == 1 for num, den, _ in doc["finite_part"])

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from numelast import (
    ArithmeticalParams,
    ElasticityTuple,
    IncompatibleParams,
    InvalidTuple,
    NonIntegerResult,
    NotApplicable,
    NotInMonoid,
    SOutOfRange,
    arith_max_length,
    arith_min_length,
    arithmetical_witness,
    build_profile,
    compare_built_profiles,
    compare_profiles,
    compare_tuples,
    contains_elasticity,
    elasticity,
    elasticity_sets_equal_arithmetical,
    enumerate_tuples,
    length_set,
    length_sets_equal_arithmetical,
    max_elasticity,
    max_length,
    maximal_coprime_tuple,
    min_length,
    new_monoid,
    phi_embed,
    recover_a_over_k,
    recover_d,
    three_minimal_elasticities,
    tuple_bounds,
    tuple_elasticity,
    witness_element,
)

from numelast.arithmetical import is_valid_tuple

import oracles

P753 = ArithmeticalParams(7, 5, 3)
P321 = ArithmeticalParams(3, 2, 1)


def test_tuple_bounds_examples():
    assert tuple_bounds(P753, 1) == (3, 11)
    assert tuple_bounds(P753, 0) == (0, 9)
    assert tuple_bounds(P321, 0) == (0, 6)
    with pytest.raises(SOutOfRange):
        tuple_bounds(P753, 3)
    with pytest.raises(SOutOfRange):
        tuple_bounds(P753, -1)


def test_enumerate_tuples_slice_zero():
    tuples = enumerate_tuples(P753, 0)
    assert tuples == [ElasticityTuple(0, 0, x) for x in range(10)]
    assert tuples[0].is_minimal(P753) and tuples[-1].is_maximal(P753)


def test_enumerate_tuples_k_one():
    tuples = enumerate_tuples(P321, 1)
    assert tuples == [ElasticityTuple(c, 0, x) for c in (0, 1) for x in range(7)]


def test_enumerate_tuples_ordering_and_validity():
    tuples = enumerate_tuples(P753, 9)
    keys = [(t.slice_index(P753), t.x) for t in tuples]
    assert keys == sorted(keys)
    for t in tuples:
        lo, hi = tuple_bounds(P753, t.s)
        assert lo <= t.x <= hi


def test_tuple_elasticity_examples():
    assert tuple_elasticity(P753, ElasticityTuple(0, 1, 3)) == Fraction(8, 3)
    for x in range(10):
        assert tuple_elasticity(P753, ElasticityTuple(0, 0, x)) == 1
    assert tuple_elasticity(
        ArithmeticalParams(14, 3, 6), ElasticityTuple(7, 5, 19)
    ) == Fraction(86, 39)
    with pytest.raises(InvalidTuple):
        tuple_elasticity(P753, ElasticityTuple(0, 1, 2))
    with pytest.raises(InvalidTuple):
        tuple_elasticity(P753, ElasticityTuple(-1, 0, 0))


def test_witness_element_examples():
    assert witness_element(P753, ElasticityTuple(0, 1, 3)) == 66
    assert witness_element(P753, ElasticityTuple(0, 0, 0)) == 0
    n = witness_element(P321, ElasticityTuple(1, 0, 6))
    S = P321.monoid()
    assert elasticity(S, n) == Fraction(11, 9)


def test_witness_elements_hit_their_values():
    for params in (P753, P321, ArithmeticalParams(14, 3, 6)):
        S = params.monoid()
        for t in enumerate_tuples(params, 3 * params.k + 4):
            n = witness_element(params, t)
            assert elasticity(S, n) == tuple_elasticity(params, t), (params, t)


def test_tuple_values_match_length_formulas():
    # closed forms for M and m agree with the table-driven library values,
    # and refuse non-members as the table readers do
    for params in (P753, P321, ArithmeticalParams(5, 3, 2), ArithmeticalParams(2, 1, 1)):
        S = params.monoid()
        for n in range(-3, 400):
            if n not in S:
                with pytest.raises(NotInMonoid):
                    arith_max_length(params, n)
                with pytest.raises(NotInMonoid):
                    arith_min_length(params, n)
                continue
            assert arith_max_length(params, n) == max_length(S, n)
            assert arith_min_length(params, n) == min_length(S, n)


def test_compare_tuples_same_c_slice_order():
    t1 = ElasticityTuple(0, 1, 5)
    t2 = ElasticityTuple(0, 2, 5)
    cmp = compare_tuples(P753, t1, t2)
    assert cmp.rule == "slice" and cmp.relation <= 0


def test_compare_tuples_row_order():
    lo = compare_tuples(P753, ElasticityTuple(0, 1, 4), ElasticityTuple(0, 1, 3))
    assert lo.rule == "row" and lo.relation <= 0
    assert compare_tuples(P753, ElasticityTuple(0, 1, 3), ElasticityTuple(0, 1, 3)).relation == 0
    # exhaustively: the relation is the value order, and with shared (c, s)
    # the row order reverses it
    values = {t: tuple_elasticity(P753, t) for t in enumerate_tuples(P753, 10)}
    for t1, v1 in values.items():
        for t2, v2 in values.items():
            relation = compare_tuples(P753, t1, t2).relation
            assert relation == (v1 > v2) - (v1 < v2)
            if (t1.c, t1.s) == (t2.c, t2.s):
                assert (t1.x - t2.x) * relation <= 0


def test_compare_tuples_restricted_monotonicity_exhaustive():
    for params in (P753, P321, ArithmeticalParams(8, 3, 4)):
        tuples = enumerate_tuples(params, max(3 * params.k, 10))
        by_row: dict[int, list[ElasticityTuple]] = {}
        for t in tuples:
            by_row.setdefault(t.x, []).append(t)
        for row in by_row.values():
            for t1 in row:
                for t2 in row:
                    if t1.c != t2.c and t1.s != t2.s:
                        continue
                    cmp = compare_tuples(params, t1, t2)
                    d_slice = t1.slice_index(params) - t2.slice_index(params)
                    assert d_slice * cmp.relation >= 0


def test_shared_row_slice_monotonicity_fails_in_general():
    # counterexample with both c and s differing: slice 5 beats slice 6
    hi = compare_tuples(P753, ElasticityTuple(1, 2, 5), ElasticityTuple(2, 0, 5))
    assert hi.rule == "slice"
    assert hi.lhs == Fraction(37, 12) and hi.rhs == Fraction(49, 19)
    assert hi.relation == 1
    S = P753.monoid()
    assert elasticity(S, 264) == Fraction(37, 12)
    assert elasticity(S, 373) == Fraction(49, 19)


@pytest.mark.xfail(
    strict=True,
    reason="slice order does not imply value order for all shared-row pairs",
)
def test_shared_row_slice_monotonicity_literal():
    for t1 in enumerate_tuples(P753, 8):
        for t2 in enumerate_tuples(P753, 8):
            if t1.x != t2.x:
                continue
            cmp = compare_tuples(P753, t1, t2)
            d_slice = t1.slice_index(P753) - t2.slice_index(P753)
            assert d_slice * cmp.relation >= 0


def test_recover_d_examples():
    assert recover_d(Fraction(16, 11), Fraction(3, 2)) == 5
    assert recover_d(Fraction(11, 9), Fraction(5, 4)) == 2
    assert recover_d(Fraction(3, 2), Fraction(2)) == 1
    with pytest.raises(NonIntegerResult):
        recover_d(Fraction(6, 5), Fraction(7, 5))
    with pytest.raises(ValueError):
        recover_d(Fraction(3, 2), Fraction(4, 3))  # f > g


def test_three_minimal_examples():
    assert three_minimal_elasticities(P753) == (1, Fraction(16, 11), Fraction(3, 2))
    assert three_minimal_elasticities(P321) == (1, Fraction(11, 9), Fraction(5, 4))


def test_three_minimal_against_bruteforce():
    for params in (P753, P321):
        gens = params.generators()
        values = oracles.recurrence_elasticity_map(gens, 5000).values()
        assert three_minimal_elasticities(params) == oracles.three_smallest_distinct(values)


def test_three_minimal_matches_full_enumeration_on_grid():
    # every row of slices 0..2k+2, keyed by floor(v K): a value there has a
    # denominator ca + x <= 4a + 3a + d, so K = (7a + d)^2 + 1 keys the
    # values exactly and in order
    count = 0
    for a in range(2, 40):
        for d in range(1, 12):
            if gcd(a, d) != 1:
                continue
            K = (7 * a + d) ** 2 + 1
            for k in range(1, a):
                keys = {K}  # the zero tuple, value 1
                for sl in range(2 * k + 3):
                    c, s = divmod(sl, k)
                    num, den = c * (a + k * d) + s * d, c * a
                    lo, hi = -(-s * a // k), (s * a + 2 * (a - 1)) // k + d
                    keys.update((num + x) * K // (den + x) for x in range(lo, hi + 1) if den + x)
                trio = three_minimal_elasticities(ArithmeticalParams(a, d, k))
                assert [v.numerator * K // v.denominator for v in trio] == sorted(keys)[:3]
                count += 1
    assert count == 5314


def test_three_minimal_check_survives_optimize_flag():
    # under python -O a candidate set without three values must still raise
    # the typed error, not slip through a stripped assert
    code = (
        "import sys\n"
        "import numelast.arithmetical as ar\n"
        "from numelast import ArithmeticalParams, InternalInconsistency\n"
        "ar.tuple_bounds = lambda params, s: (1, 0)\n"
        "try:\n"
        "    ar.three_minimal_elasticities(ArithmeticalParams(7, 5, 3))\n"
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


def test_recover_a_over_k_examples():
    assert recover_a_over_k(Fraction(22, 7), 5) == Fraction(7, 3)
    assert recover_a_over_k(Fraction(5, 3), 2) == Fraction(3, 1)
    assert recover_a_over_k(Fraction(1 + 4), 4) == 1
    with pytest.raises(ValueError):
        recover_a_over_k(1, 2)  # a supremum of 1 means k d = 0


def test_maximal_coprime_tuple_main_example():
    params = ArithmeticalParams(14, 3, 6)
    t = maximal_coprime_tuple(params)
    assert t == ElasticityTuple(7, 5, 19)
    assert gcd(t.c * 14 + t.x, t.c * 6 + t.s) == 1
    assert t.is_maximal(params)
    assert tuple_elasticity(params, t) == Fraction(86, 39)


def test_maximal_coprime_tuple_value_separates_sets():
    value = Fraction(86, 39)
    in_big = set(oracles.recurrence_elasticity_map((14, 17, 20, 23, 26, 29, 32), 6000).values())
    in_small = set(oracles.recurrence_elasticity_map((7, 10, 13, 16), 6000).values())
    assert value in in_big  # witness 3651 lies inside the scan
    assert value not in in_small  # bounded evidence; exact absence in test_profile


def test_maximal_coprime_tuple_small_case_and_guard():
    # maximal, the residue congruence a'(s + 2) = 1 mod k', and coprime coordinates
    for params in (ArithmeticalParams(4, 1, 2), ArithmeticalParams(14, 3, 6)):
        t = maximal_coprime_tuple(params)
        a, k = params.a, params.k
        g = gcd(a, k)
        assert is_valid_tuple(params, t) and t.is_maximal(params)
        assert (a // g * (t.s + 2)) % (k // g) == 1 % (k // g)
        assert gcd(t.c * a + t.x, t.c * k + t.s) == 1
    with pytest.raises(NotApplicable):
        maximal_coprime_tuple(P753)  # gcd(7, 3) = 1


def test_maximal_coprime_tuple_uniqueness_at_desk_scale():
    # no other tuple of slice <= its own achieves the same value
    params = ArithmeticalParams(14, 3, 6)
    t = maximal_coprime_tuple(params)
    value = tuple_elasticity(params, t)
    achievers = [
        u
        for u in enumerate_tuples(params, t.slice_index(params))
        if tuple_elasticity(params, u) == value
    ]
    assert achievers == [t]


def test_phi_embed_examples():
    p_from = ArithmeticalParams(7, 3, 3)
    p_to = ArithmeticalParams(14, 3, 6)
    image = phi_embed(p_from, p_to, ElasticityTuple(5, 1, 3))
    assert image == ElasticityTuple(2, 4, 10)
    assert tuple_elasticity(p_to, image) == Fraction(43, 19)
    small = ElasticityTuple(0, 2, 6)
    assert phi_embed(p_from, p_to, small) == small


def test_phi_embed_preserves_random_tuples():
    rng = random.Random(13)
    pairs = [
        (ArithmeticalParams(7, 3, 3), ArithmeticalParams(14, 3, 6)),
        (ArithmeticalParams(4, 1, 2), ArithmeticalParams(12, 1, 6)),
        (ArithmeticalParams(5, 3, 3), ArithmeticalParams(10, 3, 6)),
    ]
    for p_from, p_to in pairs:
        pool = enumerate_tuples(p_from, 30)
        for t in rng.sample(pool, min(100, len(pool))):
            image = phi_embed(p_from, p_to, t)
            assert tuple_elasticity(p_to, image) == tuple_elasticity(p_from, t)


def test_phi_embed_incompatible():
    with pytest.raises(IncompatibleParams):
        phi_embed(ArithmeticalParams(7, 3, 3), ArithmeticalParams(14, 5, 6),
                  ElasticityTuple(0, 0, 0))  # steps differ
    with pytest.raises(IncompatibleParams):
        phi_embed(ArithmeticalParams(7, 3, 3), ArithmeticalParams(7, 3, 3),
                  ElasticityTuple(0, 0, 0))  # scale factor 1
    with pytest.raises(IncompatibleParams):
        phi_embed(ArithmeticalParams(7, 3, 3), ArithmeticalParams(14, 3, 3),
                  ElasticityTuple(0, 0, 0))  # a scales, k does not
    with pytest.raises(IncompatibleParams):
        phi_embed(ArithmeticalParams(7, 3, 3), ArithmeticalParams(16, 3, 6),
                  ElasticityTuple(0, 0, 0))  # 7 does not divide 16


def test_equality_predicate_examples():
    assert not elasticity_sets_equal_arithmetical(
        ArithmeticalParams(14, 3, 6), ArithmeticalParams(7, 3, 3)
    )
    assert elasticity_sets_equal_arithmetical(
        ArithmeticalParams(4, 1, 2), ArithmeticalParams(6, 1, 3)
    )
    assert elasticity_sets_equal_arithmetical(P753, P753)
    assert length_sets_equal_arithmetical(
        ArithmeticalParams(4, 1, 2), ArithmeticalParams(6, 1, 3)
    )
    assert not length_sets_equal_arithmetical(
        ArithmeticalParams(14, 3, 6), ArithmeticalParams(7, 3, 3)
    )


def test_equal_pair_bounded_value_sets_agree():
    # every bounded value of each side belongs to the other side's set
    from numelast import build_profile, contains_elasticity

    S1 = new_monoid([4, 5, 6])
    S2 = new_monoid([6, 7, 8, 9])
    prof1 = build_profile(S1)
    prof2 = build_profile(S2)
    vals1 = set(oracles.recurrence_elasticity_map((4, 5, 6), 2000).values())
    vals2 = set(oracles.recurrence_elasticity_map((6, 7, 8, 9), 2000).values())
    assert all(contains_elasticity(prof2, v)[0] for v in vals1)
    assert all(contains_elasticity(prof1, v)[0] for v in vals2)


def test_equality_predicates_agree_on_grid():
    pool = []
    for a in range(2, 12):
        for d in range(1, 4):
            if gcd(a, d) != 1:
                continue
            for k in range(1, a):
                pool.append(ArithmeticalParams(a, d, k))
    rng = random.Random(31)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(500)]
    for p1, p2 in pairs:
        assert elasticity_sets_equal_arithmetical(p1, p2) == length_sets_equal_arithmetical(p1, p2)


def test_length_set_family_matches_factorizations():
    # the bitset recurrence against the length sets of Z(n), at every n it scans
    for gens in ((3, 5), (4, 5, 6), (6, 10, 13, 14), (7, 12, 17, 22)):
        S = new_monoid(gens)
        expected = {}
        for n in range(12 * S.gk + 1):
            if n in S and max(lengths := length_set(S, n)) <= 12:
                expected.setdefault(sum(1 << length for length in lengths), n)
        assert oracles.length_set_family(gens, 12) == expected, gens


def test_theorem_matches_length_set_families_exhaustively():
    # every progression with a <= 12 and d <= 4: the theorem's predicate holds
    # exactly when the two collections of length sets, cut at length 24, agree
    pool = [
        ArithmeticalParams(a, d, k)
        for a in range(2, 13) for d in range(1, 5) for k in range(1, a) if gcd(a, d) == 1
    ]
    same_limit = [
        (p1, p2) for i, p1 in enumerate(pool) for p2 in pool[i + 1:]
        if p1.step_bound() == p2.step_bound()
    ]
    families = {
        p: oracles.length_set_family(p.generators(), 24).keys() for pair in same_limit for p in pair
    }
    predicate = [length_sets_equal_arithmetical(p1, p2) for p1, p2 in same_limit]
    assert predicate == [families[p1] == families[p2] for p1, p2 in same_limit]
    assert (len(pool), len(same_limit), sum(predicate)) == (166, 132, 21)


def test_equal_elasticity_sets_need_not_share_length_sets():
    # the theorem's equivalence is for progressions only: README's EQUAL pair
    # has equal elasticity sets, but L(43) = {4, 6} in the first monoid and
    # in no element of the second; an element of length at most 6 is at most
    # 6 g_k, so the families cut at length 30 hold every such set
    S1, S2 = new_monoid([6, 10, 13, 14]), new_monoid([6, 11, 13, 14])
    assert compare_profiles(S1, S2).outcome == "equal"
    four_six = 1 << 4 | 1 << 6
    assert length_set(S1, 43) == {4, 6}
    assert oracles.length_set_family(S1.generators, 30).get(four_six) == 43
    assert four_six not in oracles.length_set_family(S2.generators, 30)


def test_theorem_agrees_with_profiles_on_small_progressions():
    # the profile comparison is the reference: where it decides, the theorem
    # agrees, and every witness lies in exactly one of the two sets
    pool = [
        ArithmeticalParams(a, d, k)
        for a in range(2, 18) for d in range(1, 17) for k in range(1, a)
        if gcd(a, d) == 1 and a + k * d <= 18
    ]
    same_limit = [
        (p1, p2) for i, p1 in enumerate(pool) for p2 in pool[i:]
        if p1.step_bound() == p2.step_bound()
    ]
    other_limits = [(p1, p2) for p1 in pool for p2 in pool if p1.step_bound() != p2.step_bound()]
    pairs = same_limit + random.Random(11).sample(other_limits, 40)
    profiles = {p: build_profile(p.monoid()) for p in pool}
    decided = witnesses = 0
    for p1, p2 in pairs:
        prof1, prof2 = profiles[p1], profiles[p2]
        equal = elasticity_sets_equal_arithmetical(p1, p2)
        outcome = compare_built_profiles(prof1, prof2).outcome
        if outcome != "unknown":
            assert (outcome == "equal") == equal, (p1, p2)
            decided += 1
        if equal:
            with pytest.raises(ValueError):  # no value separates equal sets
                arithmetical_witness(p1, p2)
        else:
            w = arithmetical_witness(p1, p2)
            assert contains_elasticity(prof1, w)[0] != contains_elasticity(prof2, w)[0], (p1, p2)
            witnesses += 1
    assert (len(same_limit), decided, witnesses) == (324, 308 + 40, 130 + 40)


def test_tuple_value_bounds():
    for params in (P753, P321, ArithmeticalParams(14, 3, 6)):
        top = params.step_bound()
        for t in enumerate_tuples(params, 2 * params.k + 4):
            assert 1 <= tuple_elasticity(params, t) <= top


def test_parametrization_against_bruteforce():
    # both inclusions, small scale; the acceptance suite runs the full bounds
    for params, limit in ((P753, 800), (P321, 800)):
        S = params.monoid()
        rho = oracles.elasticity_map(params.generators(), limit)
        need = max(
            (max_length(S, n) - min_length(S, n)) // params.d for n in rho
        )
        available = {
            tuple_elasticity(params, t) for t in enumerate_tuples(params, need)
        }
        assert set(rho.values()) <= available
        for t in enumerate_tuples(params, 10):
            assert elasticity(S, witness_element(params, t)) == tuple_elasticity(params, t)


def test_sup_recovery_round_trip():
    for a in range(3, 10):
        for d in range(1, 5):
            if gcd(a, d) != 1:
                continue
            for k in range(1, a):
                params = ArithmeticalParams(a, d, k)
                assert max_elasticity(params.monoid()) == params.step_bound()
                one, f, g = three_minimal_elasticities(params)
                step = recover_d(f, g)
                assert step == d
                assert recover_a_over_k(params.step_bound(), step) == Fraction(a, k)

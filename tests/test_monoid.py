import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numelast import (
    ArithmeticalParams,
    EmptyInput,
    GeneratorTooLarge,
    NonCoprime,
    NumericalMonoid,
    TableTooLarge,
    ZeroGenerator,
    contains,
    detect_arithmetical,
    frobenius,
    iter_lengths,
    max_elasticity,
    new_monoid,
)

from numelast.monoid import MAX_GENERATOR, TABLE_LIMIT, window_tables

import oracles


def test_new_monoid_sorts_and_dedupes():
    assert new_monoid([5, 3, 7, 3]).generators == (3, 5, 7)
    with pytest.raises(ValueError):
        NumericalMonoid((5, 3))  # the constructor itself does not sort


def test_new_monoid_drops_redundant_generator():
    assert new_monoid([3, 5, 8]).generators == (3, 5)
    # 10 = 5 + 5: the first breakpoint of its class mod 3 is (10, 4), not
    # (10, 7), so a test on s alone would keep 10
    assert new_monoid([3, 5, 10]).generators == (3, 5)


def test_new_monoid_rejects_common_factor():
    with pytest.raises(NonCoprime):
        new_monoid([4, 6])
    with pytest.raises(NonCoprime):  # the gcd is checked before the cap
        new_monoid([2, 4 * MAX_GENERATOR + 2])


def test_new_monoid_rejects_empty_and_zero():
    with pytest.raises(EmptyInput):
        new_monoid([])
    with pytest.raises(ZeroGenerator):
        new_monoid([0, 3])


def test_non_integer_generators_raise():
    # never truncated to 2; new_monoid checks before deduplicating, the constructor too
    with pytest.raises(TypeError):
        new_monoid([2.7, 5])
    with pytest.raises(TypeError):
        NumericalMonoid((2.9, 5))
    # a float equal to a generator is refused wherever it stands
    for raw in ([3, 3.0, 5], [3.0, 3, 5]):
        with pytest.raises(TypeError):
            new_monoid(raw)


def test_new_monoid_generator_cap():
    with pytest.raises(GeneratorTooLarge):
        new_monoid([3, 10**6 + 1])
    assert new_monoid([3, MAX_GENERATOR]).generators == (3, MAX_GENERATOR)


def test_table_budget():
    S = new_monoid([9973, 10007])  # about 2 * 10**8 table entries
    start = time.perf_counter()
    with pytest.raises(TableTooLarge):
        contains(S, 5)
    with pytest.raises(TableTooLarge):
        frobenius(S)
    with pytest.raises(TableTooLarge):
        iter_lengths(S, 0, 1)  # on the call, before any row is read
    with pytest.raises(TableTooLarge):
        window_tables(S.generators)  # likewise before any column is written
    assert time.perf_counter() - start < 1.0  # refused before any table is built
    # the largest monoid the benchmark and the ROADMAP ladder use fits: two
    # tables of (g_k - 1) g_{k-1} + 1 entries, 1557110 in all
    gk1, gk = 777, 1003
    assert 2 * ((gk - 1) * gk1 + 1) <= TABLE_LIMIT



def test_table_budget_counts_both_tables():
    # one window of (g_k - 1) g_{k-1} = 5006406 entries; the two tables over
    # it need 10012814, above the limit, though each alone would fit
    S = new_monoid([3, 2237, 2239])
    assert S.generators == (3, 2237, 2239)
    limit = (2239 - 1) * 2237
    assert limit + 1 <= TABLE_LIMIT < 2 * (limit + 1)
    with pytest.raises(TableTooLarge):
        frobenius(S)

def test_normalization_idempotent_random():
    rng = random.Random(42)
    for _ in range(200):
        raw = [rng.randint(1, 60) for _ in range(rng.randint(1, 7))]
        if gcd(*raw) != 1:
            raw.append(raw[0] + 1)
        S = new_monoid(raw)
        assert new_monoid(S.generators).generators == S.generators


def test_minimality_of_kept_generators():
    rng = random.Random(7)
    for _ in range(60):
        raw = [rng.randint(2, 30) for _ in range(rng.randint(2, 5))]
        if gcd(*raw) != 1:
            raw.append(raw[0] + 1)
        S = new_monoid(raw)
        gens = S.generators
        for i, g in enumerate(gens):
            others = gens[:i] + gens[i + 1 :]
            if others:
                assert not oracles.membership(others, g)[g]


def test_contains_examples():
    S = new_monoid([3, 5, 7])
    assert contains(S, 0)
    assert not contains(S, 4)
    assert contains(S, 10)
    assert not contains(S, -1)
    # non-integers are never members, past the Frobenius number or below it
    S = new_monoid([3, 5])
    for q in (8.5, 4.5, Fraction(17, 2)):
        assert not contains(S, q)
        assert q not in S


def test_contains_matches_enumeration():
    rng = random.Random(99)
    fixtures = [(3, 5, 7), (6, 10, 13, 14), (2, 3), (5, 16, 17, 18, 19), (7, 12, 17, 22), (3, 5)]
    for _ in range(6):
        raw = sorted({rng.randint(2, 25) for _ in range(rng.randint(2, 4))})
        if gcd(*raw) != 1:
            raw.append(raw[0] + 1)
        fixtures.append(tuple(new_monoid(raw).generators))
    for gens in fixtures:
        S = new_monoid(gens)
        limit = max(frobenius(S) + S.g1 * S.gk, 2 * S.g1 * S.gk)
        table = oracles.membership(S.generators, limit)
        for n in range(limit + 1):
            assert contains(S, n) == table[n], (gens, n)


def test_frobenius_examples():
    assert frobenius(new_monoid([3, 5, 7])) == 4
    assert frobenius(new_monoid([2, 3])) == 1
    assert frobenius(new_monoid([7, 41])) == 239
    assert frobenius(new_monoid([1])) == -1


def test_frobenius_is_last_gap():
    for gens in [(3, 5, 7), (6, 10, 13, 14), (7, 41), (4, 6, 9), (2, 3)]:
        S = new_monoid(gens)
        f = frobenius(S)
        assert not contains(S, f)
        assert all(contains(S, f + i) for i in range(1, 3 * S.gk))


def test_detect_arithmetical_examples():
    assert detect_arithmetical(new_monoid([7, 12, 17, 22])) == ArithmeticalParams(7, 5, 3)
    assert detect_arithmetical(new_monoid([20, 21, 45])) is None
    assert detect_arithmetical(new_monoid([3, 5])) == ArithmeticalParams(3, 2, 1)
    assert detect_arithmetical(new_monoid([1])) is None
    # a progression with k >= a is not minimal, so new_monoid never returns it
    assert detect_arithmetical(NumericalMonoid((2, 3, 4))) is None


def test_detect_arithmetical_roundtrip():
    for a in range(2, 12):
        for d in range(1, 6):
            if gcd(a, d) != 1:
                continue
            for k in range(1, a):
                params = ArithmeticalParams(a, d, k)
                assert detect_arithmetical(params.monoid()) == params


def test_arithmetical_params_validation():
    with pytest.raises(ValueError):
        ArithmeticalParams(4, 2, 1)  # gcd(a, d) > 1
    with pytest.raises(ValueError):
        ArithmeticalParams(3, 2, 3)  # k >= a
    with pytest.raises(ValueError):
        ArithmeticalParams(3, 0, 1)


def test_max_elasticity_examples():
    assert max_elasticity(new_monoid([7, 41])) == Fraction(41, 7)
    assert max_elasticity(new_monoid([20, 21, 45])) == Fraction(9, 4)
    assert max_elasticity(new_monoid([1])) == 1


def test_max_elasticity_exceeds_one_iff_several_generators():
    assert max_elasticity(new_monoid([1])) == 1
    for gens in [(2, 3), (3, 5, 7), (6, 10, 13, 14)]:
        assert max_elasticity(new_monoid(gens)) > 1


@st.composite
def _progressions(draw):
    a = draw(st.integers(2, 60))
    d = draw(st.integers(1, 60).filter(lambda d: gcd(a, d) == 1))
    return ArithmeticalParams(a, d, draw(st.integers(1, a - 1)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_progressions())
def test_arithmetical_progression_is_minimal(params):
    assert params.monoid().generators == params.generators()

"""Self-check suites behind the ``verify`` CLI command.

Each check re-derives a library result along an independent route (direct
enumeration, closed identities, cross-module agreement) at desk scale and
returns True on agreement.  These are runtime sanity suites; the full
oracle-backed battery lives in the test suite.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from . import arithmetical as ar
from . import monoid as mo
from . import profile as pr
from .errors import NoSubcollection
from .lengths import (
    elasticity as _elasticity,
    find_proper_subcollection as _find_proper_subcollection,
    length_stats_range as _length_stats_range,
    max_length as _max_length,
    min_length as _min_length,
)


def _enumerate_lengths(gens: tuple[int, ...], n: int) -> set[int]:
    # straight recursive enumeration, independent of the DP tables
    out: set[int] = set()

    def descend(i: int, rem: int, count: int) -> None:
        if i == 0:
            if rem % gens[0] == 0:
                out.add(count + rem // gens[0])
            return
        g = gens[i]
        for e in range(rem // g + 1):
            descend(i - 1, rem - e * g, count + e)

    descend(len(gens) - 1, n, 0)
    return out


_FIXTURES = ((3, 5, 7), (6, 10, 13, 14), (7, 12, 17, 22), (3, 5))


def check_normalization_idempotent() -> bool:
    rng = random.Random(20260810)
    for _ in range(60):
        raw = [rng.randint(1, 40) for _ in range(rng.randint(1, 6))]
        if gcd(*raw) != 1:
            raw.append(raw[-1] + 1)
        S = mo.new_monoid(raw)
        if mo.new_monoid(S.generators).generators != S.generators:
            return False
    return True


def check_membership_against_enumeration() -> bool:
    for gens in _FIXTURES:
        S = mo.new_monoid(gens)
        for n in range(2 * S.g1 * S.gk + 1):
            if mo.contains(S, n) != bool(_enumerate_lengths(S.generators, n)):
                return False
    return True


def check_frobenius_examples() -> bool:
    cases = {(3, 5, 7): 4, (2, 3): 1, (7, 41): 239, (1,): -1}
    for gens, expected in cases.items():
        S = mo.new_monoid(gens)
        if mo.frobenius(S) != expected:
            return False
        if expected >= 0:
            if mo.contains(S, expected):
                return False
            if not all(mo.contains(S, expected + i) for i in range(1, 2 * S.gk)):
                return False
    return True


def check_arithmetical_roundtrip() -> bool:
    for a in range(2, 9):
        for d in range(1, 5):
            if gcd(a, d) != 1:
                continue
            for k in range(1, a):
                params = mo.ArithmeticalParams(a, d, k)
                if mo.detect_arithmetical(params.monoid()) != params:
                    return False
    return mo.detect_arithmetical(mo.new_monoid([20, 21, 45])) is None


def check_length_tables_against_enumeration() -> bool:
    for gens in _FIXTURES:
        S = mo.new_monoid(gens)
        for n in range(0, 260):
            lengths = _enumerate_lengths(S.generators, n)
            if not lengths:
                continue
            if _max_length(S, n) != max(lengths):
                return False
            if _min_length(S, n) != min(lengths):
                return False
    return True


def check_quasilinear_steps() -> bool:
    for gens in _FIXTURES:
        S = mo.new_monoid(gens)
        up = (S.g1 - 1) * S.gk
        down = (S.gk - 1) * S.generators[-2]
        for n in range(up + 1, 2001):
            if _max_length(S, n) != _max_length(S, n - S.g1) + 1:
                return False
        for n in range(down + 1, 2001):
            if _min_length(S, n) != _min_length(S, n - S.gk) + 1:
                return False
    return True


def check_elasticity_bounds() -> bool:
    for gens in _FIXTURES:
        S = mo.new_monoid(gens)
        top = mo.max_elasticity(S)
        for st in _length_stats_range(S, 0, 800):
            if not 1 <= st.elasticity <= top:
                return False
    return True


def check_subcollection_contract() -> bool:
    rng = random.Random(987654)
    for _ in range(2000):
        k = rng.randint(0, 12)
        r = rng.randint(max(k, 1), 24)
        c = [rng.randint(-50, 50) for _ in range(r)]
        try:
            chosen = _find_proper_subcollection(k, c)
        except NoSubcollection:
            if k != 0:
                return False
            continue
        if not chosen < set(range(1, r + 1)):
            return False
        diff = sum(c) - sum(c[i - 1] for i in chosen)
        if (diff % k if k else diff) != 0:
            return False
    return True


def check_tuple_parametrization() -> bool:
    # both inclusions at desk scale, for two shapes of progression
    for a, d, k in ((7, 5, 3), (3, 2, 1)):
        params = mo.ArithmeticalParams(a, d, k)
        S = params.monoid()
        bound = 600
        need = 0
        seen: set[Fraction] = set()
        for st in _length_stats_range(S, 1, bound):
            need = max(need, (st.max_len - st.min_len) // d)
            seen.add(st.elasticity)
        available = {
            ar.tuple_elasticity(params, t) for t in ar.enumerate_tuples(params, need)
        }
        if not seen <= available:
            return False
        for t in ar.enumerate_tuples(params, 12):
            n = ar.witness_element(params, t)
            if _elasticity(S, n) != ar.tuple_elasticity(params, t):
                return False
    return True


def check_tuple_monotonicity() -> bool:
    # shared row with matching c or s: slice order bounds the value order;
    # shared (c, s): row order reverses it
    params = mo.ArithmeticalParams(7, 5, 3)
    values = {t: ar.tuple_elasticity(params, t) for t in ar.enumerate_tuples(params, 10)}
    for t1, v1 in values.items():
        for t2, v2 in values.items():
            relation = ar.compare_tuples(params, t1, t2).relation
            if relation != (v1 > v2) - (v1 < v2):
                return False
            if t1.x == t2.x and (t1.c == t2.c or t1.s == t2.s):
                if (t1.slice_index(params) - t2.slice_index(params)) * relation < 0:
                    return False
            if (t1.c, t1.s) == (t2.c, t2.s) and (t1.x - t2.x) * relation > 0:
                return False
    return True


def check_recovery_formulas() -> bool:
    for a in range(3, 9):
        for d in range(1, 5):
            if gcd(a, d) != 1:
                continue
            for k in range(1, a):
                params = mo.ArithmeticalParams(a, d, k)
                one, f, g = ar.three_minimal_elasticities(params)
                if one != 1 or ar.recover_d(f, g) != d:
                    return False
                if ar.recover_a_over_k(params.step_bound(), d) != Fraction(a, k):
                    return False
    return True


def check_coprime_tuple_construction() -> bool:
    example = mo.ArithmeticalParams(14, 3, 6)
    t = ar.maximal_coprime_tuple(example)
    if t != ar.ElasticityTuple(7, 5, 19):
        return False
    if ar.tuple_elasticity(example, t) != Fraction(86, 39):
        return False
    # maximal, the residue congruence a'(s + 2) = 1 mod k', and coprime coordinates
    for params in (example, mo.ArithmeticalParams(4, 1, 2)):
        t = ar.maximal_coprime_tuple(params)
        a, k = params.a, params.k
        g = gcd(a, k)
        if not ar.is_valid_tuple(params, t) or not t.is_maximal(params):
            return False
        if (a // g * (t.s + 2)) % (k // g) != 1 % (k // g):
            return False
        if gcd(t.c * a + t.x, t.c * k + t.s) != 1:
            return False
    return True


def check_embedding_preserves_values() -> bool:
    rng = random.Random(555)
    p_from = mo.ArithmeticalParams(7, 3, 3)
    p_to = mo.ArithmeticalParams(14, 3, 6)
    pool = ar.enumerate_tuples(p_from, 40)
    for t in rng.sample(pool, 60):
        image = ar.phi_embed(p_from, p_to, t)
        if not ar.is_valid_tuple(p_to, image):
            return False
        if ar.tuple_elasticity(p_to, image) != ar.tuple_elasticity(p_from, t):
            return False
    return True


def check_equality_predicates_agree() -> bool:
    pool = []
    for a in range(2, 11):
        for d in range(1, 4):
            if gcd(a, d) != 1:
                continue
            for k in range(1, a):
                pool.append(mo.ArithmeticalParams(a, d, k))
    for p1 in pool:
        for p2 in pool:
            if ar.elasticity_sets_equal_arithmetical(
                p1, p2
            ) != ar.length_sets_equal_arithmetical(p1, p2):
                return False
    return True


def check_profile_decomposition() -> bool:
    for gens in ((3, 5), (7, 12, 17, 22)):
        S = mo.new_monoid(gens)
        prof = pr.build_profile(S)
        for st in _length_stats_range(S, 1, prof.base + 3 * prof.period):
            if st.n < prof.base + prof.period:
                found, witness = pr.contains_elasticity(prof, st.elasticity)
                if not found or witness > st.n:
                    return False
            else:
                t, idx = divmod(st.n - prof.base, prof.period)
                if pr.sequence_value(prof, idx, t) != st.elasticity:
                    return False
    return True


def check_profile_membership() -> bool:
    S = mo.new_monoid([3, 5])
    prof = pr.build_profile(S)
    seen = {st.elasticity for st in _length_stats_range(S, 0, 2000)}
    for value in seen:
        ok, witness = pr.contains_elasticity(prof, value)
        if not ok or _elasticity(S, witness) != value:
            return False
    # every claimed member must come with a checkable witness
    for num in range(24, 41):
        q = Fraction(num, 24)
        ok, witness = pr.contains_elasticity(prof, q)
        if ok and _elasticity(S, witness) != q:
            return False
        if not ok and q in seen:
            return False
    return pr.contains_elasticity(prof, Fraction(6, 5))[0] is False


def check_profile_comparisons() -> bool:
    S1 = mo.new_monoid([6, 10, 13, 14])
    S2 = mo.new_monoid([6, 11, 13, 14])
    if pr.compare_profiles(S1, S2, 30).outcome != "equal":
        return False
    if pr.compare_profiles(S1, S1, 10).outcome != "equal":
        return False
    verdict = pr.compare_profiles(mo.new_monoid([3, 5]), mo.new_monoid([3, 7]), 10)
    return verdict.outcome == "not_equal" and verdict.witness == Fraction(7, 3)


SUITES: dict[str, tuple[tuple[str, object], ...]] = {
    "core": (
        ("normalization_idempotent", check_normalization_idempotent),
        ("membership_matches_enumeration", check_membership_against_enumeration),
        ("frobenius_examples", check_frobenius_examples),
        ("arithmetical_roundtrip", check_arithmetical_roundtrip),
        ("length_tables_match_enumeration", check_length_tables_against_enumeration),
        ("quasilinear_steps", check_quasilinear_steps),
        ("elasticity_bounds", check_elasticity_bounds),
        ("subcollection_contract", check_subcollection_contract),
    ),
    "arith": (
        ("tuple_parametrization_both_inclusions", check_tuple_parametrization),
        ("tuple_monotonicity", check_tuple_monotonicity),
        ("recovery_formulas", check_recovery_formulas),
        ("coprime_tuple_construction", check_coprime_tuple_construction),
        ("embedding_preserves_values", check_embedding_preserves_values),
        ("equality_predicates_agree", check_equality_predicates_agree),
    ),
    "profile": (
        ("profile_decomposition", check_profile_decomposition),
        ("profile_membership", check_profile_membership),
        ("profile_comparisons", check_profile_comparisons),
    ),
}


def run_suites(names, writer=print) -> bool:
    """Run the named suites, printing one PASS/FAIL line per check."""
    all_ok = True
    for suite in names:
        for name, check in SUITES[suite]:
            try:
                ok = bool(check())
            except Exception as exc:  # a failed assertion is a failed check
                writer(f"FAIL {suite}.{name} ({type(exc).__name__}: {exc})")
                all_ok = False
                continue
            writer(f"{'PASS' if ok else 'FAIL'} {suite}.{name}")
            all_ok = all_ok and ok
    return all_ok

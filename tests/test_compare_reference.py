"""compare_built_profiles against a plain reference of the same decision procedure.

The reference cross-checks the way the first version of compare_profiles
did: it builds every bounded value (finite part plus tail steps t <= t_max)
as a Fraction, sorts them, and checks each against the other profile,
stopping at the first miss.  Its alignment re-derives alpha, beta and t0 for
each source sequence and checks the affine identity at three points of the
degree-2 polynomial it stands for, one alignment per residue class.  The
library's certificate holds one alignment per distinct tail start; expanded
to every residue class, the verdicts must agree field by field.
"""

import hashlib
import json
from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from numelast import (
    ArithmeticalParams,
    ComparisonVerdict,
    SequenceAlignment,
    build_profile,
    compare_built_profiles,
    compare_profiles,
    contains_elasticity,
    max_length,
    min_length,
    new_monoid,
)
import numelast.profile
from numelast.profile import _align_sequences

import oracles
from profile_helpers import _CountingLines, _same_limit_pairs, columns, finite_values, replaced

T_MAX = 50
PAIRS = Path(__file__).resolve().parents[1] / "perfbench" / "pairs.json"


def _candidates(profile, t_max):
    g1, gk = profile.monoid.g1, profile.monoid.gk
    values = set(finite_values(profile))
    # sequences that start from the same (M0, m0) take the same values
    for big, small in set(columns(profile)):
        values.update(Fraction(big + t * gk, small + t * g1) for t in range(t_max + 1))
    return sorted(values)


def _align(src, dst, t_max):
    G, g = src.monoid.gk, src.monoid.g1
    Gp, gp = dst.monoid.gk, dst.monoid.g1
    targets = columns(dst)
    constant = [j for j, (M1, m1) in enumerate(targets) if M1 * gp == m1 * Gp]
    out = []
    for i, (M0, m0) in enumerate(columns(src)):
        if M0 * g == m0 * G:
            if not constant:
                return None
            out.append(SequenceAlignment(i, constant[0], 1, 0, 0))
            continue
        D = M0 * gp - Gp * m0
        for j, (M1, m1) in enumerate(targets):
            if M1 * gp == m1 * Gp:
                continue
            alpha, a_rem = divmod(M1 * g - G * m1, D)
            beta, b_rem = divmod(M1 * m0 - M0 * m1, D)
            if a_rem or b_rem or alpha < 1:
                continue
            t0 = max(0, -(beta // alpha))
            if t0 <= t_max and all(
                (M0 + t * G) * (m1 + (alpha * t + beta) * gp)
                == (M1 + (alpha * t + beta) * Gp) * (m0 + t * g)
                for t in (0, 1, 2)
            ):
                out.append(SequenceAlignment(i, j, alpha, beta, t0))
                break
        else:
            return None
    return tuple(out)


def _first_indices(profile):
    """(M0, m0) -> index of the first sequence with that start, in index order."""
    firsts = {}
    for i, start in enumerate(columns(profile)):
        firsts.setdefault(start, i)
    return firsts


def expand(profile, side):
    """One certificate side per residue class: residue i takes the alignment
    of its start, with source i."""
    starts = columns(profile)
    by_start = {starts[a.source]: a for a in side}
    assert len(by_start) == len(side)
    return tuple(replaced(by_start[start], source=i) for i, start in enumerate(starts))


def _expanded(verdict, S1, S2):
    if verdict.certificate is None:
        return verdict
    forward, backward = verdict.certificate
    p1, p2 = build_profile(S1), build_profile(S2)
    return replaced(verdict, certificate=(expand(p1, forward), expand(p2, backward)))


def reference_verdict(S1, S2, t_max=T_MAX):
    p1, p2 = build_profile(S1), build_profile(S2)
    if p1.limit != p2.limit:
        return ComparisonVerdict("not_equal", max(p1.limit, p2.limit), None, "limits")
    for src, dst in ((p1, p2), (p2, p1)):
        for value in _candidates(src, t_max):
            if not contains_elasticity(dst, value)[0]:
                return ComparisonVerdict("not_equal", value, None, "cross-check")
    forward, backward = _align(p1, p2, t_max), _align(p2, p1, t_max)
    if forward is None or backward is None:
        return ComparisonVerdict("unknown", None, None, "unaligned")
    return ComparisonVerdict("equal", None, (forward, backward), "alignment")


def test_verdicts_match_reference_on_seeded_pairs():
    outcomes = Counter()
    # t_max 1 as well: there the last step t_max of a start that no
    # alignment covers often decides the witness
    for t_max in (T_MAX, 1):
        for S1, S2 in _same_limit_pairs(seed=20140912, count=48, scaled=12):
            verdict = compare_built_profiles(build_profile(S1), build_profile(S2), t_max)
            assert _expanded(verdict, S1, S2) == reference_verdict(S1, S2, t_max), (S1, S2, t_max)
            outcomes[verdict.outcome] += 1
    # the sample holds both witnesses and certificates; "unknown" is rare at
    # this size, so the fixtures below supply it
    assert {"equal", "not_equal"} <= set(outcomes), outcomes


FIXTURES = [
    ((6, 10, 13, 14), (6, 11, 13, 14)),
    ((14, 17, 20, 23, 26, 29, 32), (7, 10, 13, 16)),
    ((3, 5), (3, 7)),
    ((3, 5), (6, 7, 10)),
    ((7, 12, 17, 22), (7, 12, 17, 22)),
    ((4, 5, 6), (6, 7, 8, 9)),
    ((6, 7, 8), (9, 10, 11, 12)),
    # an alignment valid from t0 = 1: unknown at t_max 0, where the
    # alignment skips it, and equal from t_max 3 on
    ((4, 5, 7), (4, 6, 7)),
    # a key bound without its t_max g_1 term lets 41/30 share its key
    # with the tail value 149/109 of <9,13>: the witness turns into 33/29
    ((9, 11, 12, 13), (9, 13)),
]


def test_verdicts_match_reference_on_fixtures():
    outcomes = set()
    for gens1, gens2 in FIXTURES:
        S1, S2 = new_monoid(gens1), new_monoid(gens2)
        for t_max in (0, 3, T_MAX):
            verdict = compare_built_profiles(build_profile(S1), build_profile(S2), t_max)
            assert _expanded(verdict, S1, S2) == reference_verdict(S1, S2, t_max), (
                gens1, gens2, t_max
            )
            outcomes.add(verdict.outcome)
    assert outcomes == {"equal", "not_equal", "unknown"}


def test_verdict_digest_is_pinned():
    # every verdict, certificates included, over the benchmark's pool and
    # tier pairs both ways; a change to this digest needs a stated reason
    pairs = json.loads(PAIRS.read_text())
    profile = cache(lambda gens: build_profile(new_monoid(gens)))
    digest = hashlib.sha256()
    for gens1, gens2, _ in pairs["pool"] + pairs["tier"]:
        p1, p2 = profile(tuple(gens1)), profile(tuple(gens2))
        for x, y in ((p1, p2), (p2, p1)):
            v = compare_built_profiles(x, y, T_MAX)
            digest.update(repr((v.outcome, v.witness, T_MAX, v.certificate)).encode())
    assert digest.hexdigest() == "d1927da8deeee056234f55c5d6ae3e34d4c4759d85c86329b0564f91c4d71b23"


def test_smallest_values_decide_without_alignment(monkeypatch):
    def refuse(*args):
        raise AssertionError("the alignment ran")

    monkeypatch.setattr(numelast.profile, "_align_sequences", refuse)
    monkeypatch.setattr(numelast.profile, "_unaligned_values", refuse)
    verdict = compare_profiles(new_monoid([211, 307, 401]), new_monoid([211, 308, 401]))
    assert (verdict.outcome, verdict.witness, verdict.reason) == (
        "not_equal", Fraction(57, 53), "cross-check"
    )


def test_alignment_runs_only_when_the_smallest_values_do_not_decide(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _align_sequences(*args)

    monkeypatch.setattr(numelast.profile, "_align_sequences", counted)
    paths = Counter()
    for S1, S2 in _same_limit_pairs(seed=25, count=24, scaled=6):
        calls.clear()
        verdict = compare_built_profiles(build_profile(S1), build_profile(S2))
        assert _expanded(verdict, S1, S2) == reference_verdict(S1, S2), (S1, S2)
        paths["aligned" if calls else "smallest values"] += 1
    assert paths["aligned"] > 0 and paths["smallest values"] > 0, paths
    # the walk stops at 8/7, a tail value of <9,13> and no finite one, so the
    # full path finds the witness 41/30 further up
    calls.clear()
    S1, S2 = new_monoid([9, 11, 12, 13]), new_monoid([9, 13])
    verdict = compare_built_profiles(build_profile(S1), build_profile(S2))
    assert (verdict.outcome, verdict.witness) == ("not_equal", Fraction(41, 30)) and calls


def test_alignment_matches_slope_walk_oracle():
    # every alignment list, None entries included, against the walk by
    # a_num that the line index replaced, on same-limit pairs only: the
    # alignment is run only once the limits agree
    pairs = _same_limit_pairs(seed=20140912, count=48, scaled=12)
    # and an alignment of alpha 2, beta -1 into <3,17>: t0 = 1 rounds -beta/alpha up
    fixtures = [*FIXTURES, ((3, 10, 17), (3, 17))]
    pairs += [(new_monoid(gens1), new_monoid(gens2)) for gens1, gens2 in fixtures]
    visits = Counter()  # non-flat source starts by visit: walk, pass over every line
    for S1, S2 in pairs:
        p1, p2 = build_profile(S1), build_profile(S2)
        if p1.limit != p2.limit:
            continue
        for src, dst in ((p1, p2), (p2, p1)):
            for t_max in (0, 1, T_MAX):
                lines = _CountingLines(dst.lines)  # one pass per start that visits every line
                aligned = _align_sequences(src, replaced(dst, lines=lines), t_max)
                assert aligned == oracles.slope_walk_alignment(src, dst, t_max), (S1, S2, t_max)
            non_flat = sum(len(line) // 2 for line in src.lines.values())
            visits["pass"] += lines.passes
            visits["walk"] += non_flat - lines.passes
    assert visits["walk"] >= 1000 and visits["pass"] >= 100, visits

def _generators(lo, hi):
    """lo, hi and up to three generators between them, gcd 1."""
    middle = st.lists(st.integers(lo, hi), max_size=3)
    return middle.map(lambda mid: [lo, *mid, hi]).filter(lambda gens: gcd(*gens) == 1)


@st.composite
def _same_limit_pair(draw):
    """As in _same_limit_pairs: the same (g_1, g_k) on both sides, or (2 g_1, 2 g_k)
    on the second, kept when the normalized limits agree."""
    g1 = draw(st.integers(2, 8))
    gk = draw(st.integers(g1 + 1, 16))
    scale = draw(st.sampled_from((1, 2)))
    S1 = new_monoid(draw(_generators(g1, gk)))
    S2 = new_monoid(draw(_generators(scale * g1, scale * gk)))
    assume(S1.gk * S2.g1 == S2.gk * S1.g1)
    return S1, S2


@cache
def _oracle_parts(gens):
    """The values below base + period and the distinct tail starts of
    <gens>, from the recurrence oracle alone."""
    base, period = gens[-2] * gens[-1], gens[0] * gens[-1]
    maxs, mins = oracles.recurrence_length_arrays(gens, base + period - 1)
    finite = {Fraction(maxs[n], mins[n]) for n in range(1, base + period) if maxs[n] >= 0}
    return finite, {(maxs[n], mins[n]) for n in range(base, base + period)}


def _oracle_contains(gens, q):
    finite, starts = _oracle_parts(gens)
    if q in finite:  # which holds the limit, so the slope below is not 0
        return True
    slope = q.numerator * gens[0] - q.denominator * gens[-1]
    for big, small in starts:  # q (m0 + t g_1) = M0 + t g_k for some t >= 0
        t, rem = divmod(q.denominator * big - q.numerator * small, slope)
        if rem == 0 and t >= 0:
            return True
    return False


def test_progression_witnesses_lie_in_exactly_one_set():
    # compare_profiles decides two progressions by the theorem alone; each
    # not_equal witness must separate the two sets by the recurrence oracle
    pool = [
        ArithmeticalParams(a, d, k)
        for a in range(2, 13) for d in range(1, 5) for k in range(1, a) if gcd(a, d) == 1
    ]
    outcomes = Counter()
    for p1 in pool:
        for p2 in pool:
            if p1 == p2 or p1.step_bound() != p2.step_bound():
                continue
            verdict = compare_profiles(p1.monoid(), p2.monoid())
            assert (verdict.reason, verdict.certificate) == ("theorem", None)
            if verdict.outcome == "not_equal":
                gens1, gens2 = p1.generators(), p2.generators()
                w = verdict.witness
                assert _oracle_contains(gens1, w) != _oracle_contains(gens2, w), (p1, p2)
            outcomes[verdict.outcome] += 1
    assert outcomes == {"equal": 42, "not_equal": 222}


def _check_alignment(a, src, dst, t_max):
    """Re-verify one certificate entry from the class starts and the
    oracle: from step t0 on, source step t equals target step alpha t + beta,
    and every source value before t0 lies in the target's set."""
    G, g, Gp, gp = src.monoid.gk, src.monoid.g1, dst.monoid.gk, dst.monoid.g1
    n0, n1 = src.base + a.source, dst.base + a.target
    M0, m0 = max_length(src.monoid, n0), min_length(src.monoid, n0)
    M1, m1 = max_length(dst.monoid, n1), min_length(dst.monoid, n1)
    assert a.alpha >= 1 and a.t0 <= t_max
    assert a.alpha * a.t0 + a.beta >= 0  # so every matched target step is >= 0
    # both sides are polynomials of degree 2 in t: three points make an identity
    for t in (a.t0, a.t0 + 1, a.t0 + 2):
        s = a.alpha * t + a.beta
        assert (M0 + t * G) * (m1 + s * gp) == (M1 + s * Gp) * (m0 + t * g)
    for t in range(a.t0):
        assert _oracle_contains(dst.monoid.generators, Fraction(M0 + t * G, m0 + t * g))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_same_limit_pair())
@example((new_monoid([4, 5, 7]), new_monoid([4, 6, 7])))  # has an alignment with t0 = 1
def test_compare_is_reflexive_and_symmetric(pair):
    p1, p2 = build_profile(pair[0]), build_profile(pair[1])
    verdicts = [compare_built_profiles(p, p, T_MAX) for p in (p1, p2)]
    assert [v.outcome for v in verdicts] == ["equal", "equal"]
    there, back = compare_built_profiles(p1, p2, T_MAX), compare_built_profiles(p2, p1, T_MAX)
    assert there.outcome == back.outcome
    if there.certificate is not None:
        assert there.certificate == back.certificate[::-1]
    # each side holds one alignment per distinct source start, named by the
    # start's first residue index; the alignments, and each finite part lying
    # in the other set, check out against the oracle on their own
    runs = [(v, p, p) for v, p in zip(verdicts, (p1, p2))] + [(there, p1, p2), (back, p2, p1)]
    for verdict, *sources in runs:
        for side, src, dst in zip(verdict.certificate or (), sources, sources[::-1]):
            assert [a.source for a in side] == list(_first_indices(src).values())
            for a in side:
                _check_alignment(a, src, dst, T_MAX)
            finite, _ = _oracle_parts(src.monoid.generators)
            assert all(_oracle_contains(dst.monoid.generators, q) for q in finite)

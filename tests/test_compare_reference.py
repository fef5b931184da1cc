"""compare_profiles against a plain reference of the same decision procedure.

The reference cross-checks the way the first version of compare_profiles
did: it builds every bounded value (finite part plus tail steps t <= t_max)
as a Fraction, sorts them, and checks each against the other profile,
stopping at the first miss.  Its alignment re-derives alpha, beta and t0 for
each source sequence and checks the affine identity at three points of the
degree-2 polynomial it stands for, one alignment per residue class.  The
library's certificate holds one alignment per distinct tail start; expanded
to every residue class, the verdicts must agree field by field.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from numelast import (
    ComparisonVerdict,
    SequenceAlignment,
    build_profile,
    compare_built_profiles,
    compare_profiles,
    contains_elasticity,
    new_monoid,
)

T_MAX = 50


def _candidates(profile, t_max):
    g1, gk = profile.monoid.g1, profile.monoid.gk
    values = {value for value, _ in profile.finite_part}
    # sequences that start from the same (M0, m0) take the same values
    for big, small in {(seq.max0, seq.min0) for seq in profile.sequences}:
        values.update(Fraction(big + t * gk, small + t * g1) for t in range(t_max + 1))
    return sorted(values)


def _align(src, dst, t_max):
    G, g = src.monoid.gk, src.monoid.g1
    Gp, gp = dst.monoid.gk, dst.monoid.g1
    targets = list(dst.sequences)  # once: the view makes a TailSequence per access
    constant = [j for j, seq in enumerate(targets) if seq.constant]
    out = []
    for i, seq in enumerate(src.sequences):
        if seq.constant:
            if not constant:
                return None
            out.append(SequenceAlignment(i, constant[0], 1, 0, 0))
            continue
        D = seq.max0 * gp - Gp * seq.min0
        for j, other in enumerate(targets):
            if other.constant:
                continue
            alpha, a_rem = divmod(other.max0 * g - G * other.min0, D)
            beta, b_rem = divmod(other.max0 * seq.min0 - seq.max0 * other.min0, D)
            if a_rem or b_rem or alpha < 1:
                continue
            t0 = max(0, -(beta // alpha))
            if t0 <= t_max and all(
                (seq.max0 + t * G) * (other.min0 + (alpha * t + beta) * gp)
                == (other.max0 + (alpha * t + beta) * Gp) * (seq.min0 + t * g)
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
    for i, seq in enumerate(profile.sequences):
        firsts.setdefault((seq.max0, seq.min0), i)
    return firsts


def expand(profile, side):
    """One certificate side per residue class: residue i takes the alignment
    of its start, with source i."""
    seqs = profile.sequences
    by_start = {(seqs[a.source].max0, seqs[a.source].min0): a for a in side}
    assert len(by_start) == len(side)
    return tuple(replace(by_start[seq.max0, seq.min0], source=i) for i, seq in enumerate(seqs))


def _expanded(verdict, S1, S2):
    if verdict.certificate is None:
        return verdict
    forward, backward = verdict.certificate
    p1, p2 = build_profile(S1), build_profile(S2)
    return replace(verdict, certificate=(expand(p1, forward), expand(p2, backward)))


def reference_verdict(S1, S2, t_max=T_MAX):
    p1, p2 = build_profile(S1), build_profile(S2)
    if p1.limit != p2.limit:
        return ComparisonVerdict("not_equal", max(p1.limit, p2.limit), t_max, None)
    for src, dst in ((p1, p2), (p2, p1)):
        for value in _candidates(src, t_max):
            if not contains_elasticity(dst, value)[0]:
                return ComparisonVerdict("not_equal", value, t_max, None)
    forward, backward = _align(p1, p2, t_max), _align(p2, p1, t_max)
    if forward is None or backward is None:
        return ComparisonVerdict("unknown", None, t_max, None)
    return ComparisonVerdict("equal", None, t_max, (forward, backward))


def _draw(rng, lo, hi):
    """Generators lo < ... < hi with up to three random ones in between, gcd 1."""
    while True:
        middle = rng.sample(range(lo + 1, hi), rng.randint(0, min(3, hi - lo - 1)))
        gens = [lo, *middle, hi]
        if gcd(*gens) == 1:
            return gens


def _same_limit_pairs(seed, count, scaled):
    """Pairs with the same (g_1, g_k), and pairs with (g_1, g_k) against
    (2 g_1, 2 g_k), all generators <= 16, kept when the normalized limits agree."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count + scaled:
        want_scaled = len(pairs) >= count
        g1 = rng.randint(2, 7 if want_scaled else 15)
        gk = rng.randint(g1 + 1, 8 if want_scaled else 16)
        if want_scaled:
            if gk <= g1 + 1 or gcd(g1, gk) != 1:
                continue
            S1 = new_monoid(_draw(rng, g1, gk))
            S2 = new_monoid(_draw(rng, 2 * g1, 2 * gk))
        else:
            S1, S2 = new_monoid(_draw(rng, g1, gk)), new_monoid(_draw(rng, g1, gk))
        if Fraction(S1.gk, S1.g1) == Fraction(S2.gk, S2.g1):
            pairs.append((S1, S2))
    return pairs


def test_verdicts_match_reference_on_seeded_pairs():
    outcomes = Counter()
    for S1, S2 in _same_limit_pairs(seed=20140912, count=48, scaled=12):
        verdict = compare_profiles(S1, S2, T_MAX)
        assert _expanded(verdict, S1, S2) == reference_verdict(S1, S2), (S1, S2)
        outcomes[verdict.outcome] += 1
    # the sample holds both witnesses and certificates; "unknown" is rare at
    # this size, so the fixtures below supply it
    assert {"equal", "not_equal"} <= set(outcomes), outcomes


def test_verdicts_match_reference_on_fixtures():
    fixtures = [
        ((6, 10, 13, 14), (6, 11, 13, 14)),
        ((14, 17, 20, 23, 26, 29, 32), (7, 10, 13, 16)),
        ((3, 5), (3, 7)),
        ((3, 5), (6, 7, 10)),
        ((7, 12, 17, 22), (7, 12, 17, 22)),
        ((4, 5, 6), (6, 7, 8, 9)),
        ((6, 7, 8), (9, 10, 11, 12)),
    ]
    outcomes = set()
    for gens1, gens2 in fixtures:
        S1, S2 = new_monoid(gens1), new_monoid(gens2)
        for t_max in (0, 3, T_MAX):
            verdict = compare_profiles(S1, S2, t_max)
            assert _expanded(verdict, S1, S2) == reference_verdict(S1, S2, t_max), (
                gens1, gens2, t_max
            )
            outcomes.add(verdict.outcome)
    assert outcomes == {"equal", "not_equal", "unknown"}


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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_same_limit_pair())
def test_compare_is_reflexive_and_symmetric(pair):
    p1, p2 = build_profile(pair[0]), build_profile(pair[1])
    verdicts = [compare_built_profiles(p, p) for p in (p1, p2)]
    assert [v.outcome for v in verdicts] == ["equal", "equal"]
    there, back = compare_built_profiles(p1, p2), compare_built_profiles(p2, p1)
    assert there.outcome == back.outcome
    if there.certificate is not None:
        assert there.certificate == back.certificate[::-1]
    # each side holds one alignment per distinct source start, named by the
    # start's first residue index
    runs = [(v, p, p) for v, p in zip(verdicts, (p1, p2))] + [(there, p1, p2), (back, p2, p1)]
    for verdict, *sources in runs:
        for side, src in zip(verdict.certificate or (), sources):
            assert [a.source for a in side] == list(_first_indices(src).values())

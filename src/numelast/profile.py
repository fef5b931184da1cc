"""Exact decomposition of an elasticity set into a finite part plus tails.

Past the window base B0 = g_{k-1} g_k, the value of every element n is
determined by its residue class modulo the period g_1 g_k: class i, through
window element B0 + i, carries the monotone sequence (M0 + t g_k) / (m0 + t g_1),
t = 0, 1, 2, ..., increasing toward g_k/g_1, with M0 and m0 the lengths of
B0 + i.  The finite part records every value attained below B0 + period, so
the pair (finite part, sequences) describes the whole value set exactly and
membership of any rational is decidable by solving each sequence for t.

A profile keeps M0 and m0 in two integer columns indexed by class, and an
index of the distinct starts (M0, m0), each mapped to its first class.
Sequences with the same start take the same values, and there are far fewer
starts than classes (321 for the 3131 of <31,57,73,101>), so membership
queries and alignments scan the starts and a certificate holds one entry per
start, naming the same sequence a scan of every class would.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import gcd

from .errors import IndexOutOfRange, InternalInconsistency, SingleGenerator
from .lengths import iter_lengths
from .monoid import NumericalMonoid, frobenius


@dataclass(frozen=True)
class TailSequence:
    """One residue class: starting element n0, M(n0), m(n0)."""

    n0: int
    max0: int
    min0: int
    constant: bool  # value already equals g_k/g_1, so the whole tail is flat


@dataclass
class ElasticityProfile:
    """Finite part, tail columns and start index; ``sequences`` shows the
    columns as TailSequence objects, each made when it is read."""

    monoid: NumericalMonoid
    base: int
    period: int
    finite_part: tuple[tuple[Fraction, int], ...]  # (value, smallest witness >= 1)
    max0: array  # M(base + i) for class i
    min0: array  # m(base + i) for class i
    starts: dict[tuple[int, int], int]  # (M0, m0) -> its first class, in order of appearance
    _finite_lookup: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._finite_lookup = {value: witness for value, witness in self.finite_part}

    @property
    def limit(self) -> Fraction:
        return Fraction(self.monoid.gk, self.monoid.g1)

    @property
    def sequences(self) -> Sequence[TailSequence]:
        return _TailView(self)


class _TailView(Sequence):
    """Read-only view of a profile's tail columns, one TailSequence per class."""

    def __init__(self, profile: ElasticityProfile):
        self._profile = profile

    def __len__(self) -> int:
        return len(self._profile.max0)

    def __getitem__(self, index: int) -> TailSequence:
        p = self._profile
        i = range(len(p.max0))[index]  # IndexError past either end, as a tuple's
        big, small = p.max0[i], p.min0[i]
        return TailSequence(p.base + i, big, small, big * p.monoid.g1 == small * p.monoid.gk)


@dataclass(frozen=True)
class SequenceAlignment:
    """Affine match: source values v(t) equal target values at alpha*t + beta.

    ``source`` and ``target`` are the first classes of two tail starts; the
    match holds for every source class with that start.  Valid for t >= t0;
    earlier source values are checked individually.  Constant sequences are
    matched to a constant target with alpha=1, beta=0.
    """

    source: int
    target: int
    alpha: int
    beta: int
    t0: int


@dataclass(frozen=True)
class ComparisonVerdict:
    """Result of comparing two elasticity sets.

    ``outcome`` is "equal", "not_equal" or "unknown".  A not_equal verdict
    carries a witness value lying in exactly one of the two sets.  An equal
    verdict carries the two-directional alignment certificate: one alignment
    per start of the source, in ``starts`` order; class i's is its start's.
    """

    outcome: str
    witness: Fraction | None
    checked_bound: int
    certificate: tuple[tuple[SequenceAlignment, ...], tuple[SequenceAlignment, ...]] | None


def build_profile(S: NumericalMonoid) -> ElasticityProfile:
    """Finite part, tail columns and tail starts of the monoid's elasticity set."""
    gens = S.generators
    if len(gens) == 1:
        raise SingleGenerator("the value set of <1> is just {1}")
    g1, gk, gk1 = gens[0], gens[-1], gens[-2]
    base = gk1 * gk
    period = g1 * gk
    if frobenius(S) >= base:
        raise InternalInconsistency(f"the window of {S} does not lie above the Frobenius number")
    first: dict[tuple[int, int], int] = {}  # (M, m) -> smallest element with those lengths
    for n, big, small in iter_lengths(S, 1, base - 1):
        first.setdefault((big, small), n)
    max0, min0, starts = array("i"), array("i"), {}
    for n, big, small in iter_lengths(S, base, base + period - 1):
        first.setdefault((big, small), n)
        starts.setdefault((big, small), n - base)
        max0.append(big)
        min0.append(small)
    if len(max0) != period:
        raise InternalInconsistency(f"the window of {S} holds a non-member")
    reduced: dict[tuple[int, int], int] = {}  # reduced M/m -> smallest witness
    for (big, small), n in first.items():  # in increasing n
        g = gcd(big, small)
        reduced.setdefault((big // g, small // g), n)
    # distinct values with denominators <= D differ by at least 1/D^2, so
    # floor(value * K) with K > D^2 orders them exactly
    K = max(den for _, den in reduced) ** 2 + 1
    finite = sorted(reduced.items(), key=lambda item: item[0][0] * K // item[0][1])
    return ElasticityProfile(
        S, base, period,
        tuple((Fraction(num, den), n) for (num, den), n in finite),
        max0, min0, starts,
    )


def sequence_value(profile: ElasticityProfile, index: int, t: int) -> Fraction:
    """Value of the ``index``-th tail sequence after ``t`` periods."""
    if not 0 <= index < len(profile.max0):
        raise IndexOutOfRange(f"no sequence {index}")
    if t < 0:
        raise IndexOutOfRange(f"step must be nonnegative, got {t}")
    gens = profile.monoid.generators
    return Fraction(profile.max0[index] + t * gens[-1], profile.min0[index] + t * gens[0])


def contains_elasticity(profile: ElasticityProfile, q) -> tuple[bool, int | None]:
    """Exact membership of ``q`` in the elasticity set, with a witness element.

    Checks the finite part, then solves q = (M0 + t g_k)/(m0 + t g_1) for an
    integer t >= 0 from each distinct tail start (M0, m0).  The witness of a
    tail hit lies in the first sequence that solves it.
    """
    q = Fraction(q)
    if q < 1 or q > profile.limit:
        return False, None
    witness = profile._finite_lookup.get(q)
    if witness is not None:
        return True, witness
    gens = profile.monoid.generators
    g1, gk = gens[0], gens[-1]
    num, den = q.numerator, q.denominator
    slope = num * g1 - den * gk  # negative for q below the limit
    if slope == 0:
        # q equals the limit, which is always attained (normally the finite
        # part already answered with a smaller witness)
        return True, g1 * gk
    for (big, small), i in profile.starts.items():
        tn = den * big - num * small
        if tn % slope:
            continue
        t = tn // slope
        if t >= 0:
            return True, profile.base + i + t * profile.period
    return False, None


def _bounded_values(profile: ElasticityProfile, t_max: int) -> Iterator[tuple[int, int]]:
    """The finite part and every tail value up to step t_max, as (num, den) pairs.

    Each distinct tail start is walked once.  Tail pairs are not reduced;
    callers compare them through exact keys.
    """
    for value, _ in profile.finite_part:
        yield value.numerator, value.denominator
    g1, gk = profile.monoid.g1, profile.monoid.gk
    for big, small in profile.starts:
        for t in range(t_max + 1):
            yield big + t * gk, small + t * g1


def _max_denominator(profile: ElasticityProfile, t_max: int) -> int:
    """An upper bound on the denominators of _bounded_values."""
    finite = max(value.denominator for value, _ in profile.finite_part)
    tail = max(small for _, small in profile.starts) + t_max * profile.monoid.g1
    return max(finite, tail)


def _first_miss(
    src: ElasticityProfile, dst: ElasticityProfile, K: int, t_max: int
) -> Fraction | None:
    """Smallest bounded value of ``src`` outside the elasticity set of ``dst``.

    Each value v is keyed by floor(v * K), which is exact and order-preserving
    when K exceeds the square of every denominator involved.  Every bounded
    value of ``dst`` lies in its set, so only the values missing from that
    bounded set need a membership check, in increasing order.
    """
    dst_keys = {num * K // den for num, den in _bounded_values(dst, t_max)}
    missing = {
        num * K // den: (num, den)
        for num, den in _bounded_values(src, t_max)
        if num * K // den not in dst_keys
    }
    for key in sorted(missing):
        value = Fraction(*missing[key])
        if not contains_elasticity(dst, value)[0]:
            return value
    return None


def _align_sequences(
    src: ElasticityProfile, dst: ElasticityProfile, t_max: int
) -> list[SequenceAlignment] | None:
    """Affine alignment of every source start into some target start.

    A sequence's alignment depends only on its start (M0, m0), so each
    distinct source start is solved once, against the distinct target
    starts in order: that finds the first target sequence that fits.
    """
    G, g = src.monoid.gk, src.monoid.g1
    Gp, gp = dst.monoid.gk, dst.monoid.g1
    targets = [(j, M1, m1) for (M1, m1), j in dst.starts.items() if M1 * gp != m1 * Gp]
    constant_target = next((j for (M1, m1), j in dst.starts.items() if M1 * gp == m1 * Gp), None)
    out = []
    for (M0, m0), i in src.starts.items():
        if M0 * g == m0 * G:  # the whole tail is flat at the limit
            if constant_target is None:
                return None
            out.append(SequenceAlignment(i, constant_target, 1, 0, 0))
            continue
        # An alignment needs (M0 + tG)(m1 + (alpha t + beta) g') =
        # (M1 + (alpha t + beta) G')(m0 + tg) as polynomials in t.  The only
        # caller has checked equal limits, G g' = G' g, so the t^2
        # coefficients agree and the beta terms of the t^1 coefficients
        # cancel; what is left is alpha D = a_num (t^1) and beta D = b_num
        # (t^0), which the exact quotients below solve.  D != 0: D g =
        # g' (M0 g - G m0), and the sequence is not constant.
        D = M0 * gp - Gp * m0
        for j, M1, m1 in targets:
            a_num = M1 * g - G * m1
            if a_num % D:
                continue
            alpha = a_num // D
            if alpha < 1:
                continue
            b_num = M1 * m0 - M0 * m1
            if b_num % D:
                continue
            beta = b_num // D
            t0 = 0 if beta >= 0 else (-beta + alpha - 1) // alpha
            if t0 > t_max:
                continue  # head values would not have been cross-checked
            out.append(SequenceAlignment(i, j, alpha, beta, t0))
            break
        else:
            return None
    return out


def compare_profiles(
    S1: NumericalMonoid, S2: NumericalMonoid, t_max: int = 50
) -> ComparisonVerdict:
    """Compare the elasticity sets of two monoids; see compare_built_profiles."""
    return compare_built_profiles(build_profile(S1), build_profile(S2), t_max)


def compare_built_profiles(
    p1: ElasticityProfile, p2: ElasticityProfile, t_max: int = 50
) -> ComparisonVerdict:
    """Compare the elasticity sets of two built profiles.

    Reports not_equal when the limits differ (the witness is the larger
    limit) or when a bounded value lies outside the other set.  A side's
    bounded values are its finite part plus its tail values up to step
    ``t_max``; the witness is the smallest value in the symmetric difference
    of the two bounded value sets that the other side's set lacks, taken
    from the first profile's bounded values when one qualifies, else from
    the second's.  Reports equal only when every tail sequence of each side
    is affinely aligned into the other (a complete proof); otherwise unknown
    at the checked bound.
    """
    if p1.limit != p2.limit:
        return ComparisonVerdict("not_equal", max(p1.limit, p2.limit), t_max, None)
    K = max(_max_denominator(p1, t_max), _max_denominator(p2, t_max)) ** 2 + 1
    for src, dst in ((p1, p2), (p2, p1)):
        witness = _first_miss(src, dst, K, t_max)
        if witness is not None:
            return ComparisonVerdict("not_equal", witness, t_max, None)
    forward = _align_sequences(p1, p2, t_max)
    backward = _align_sequences(p2, p1, t_max)
    if forward is not None and backward is not None:
        return ComparisonVerdict("equal", None, t_max, (tuple(forward), tuple(backward)))
    return ComparisonVerdict("unknown", None, t_max, None)


def profile_to_dict(profile: ElasticityProfile) -> dict:
    """JSON-ready form: generators, base, period, finite part, sequences."""
    return {
        "generators": list(profile.monoid.generators),
        "base": profile.base,
        "period": profile.period,
        "finite_part": [
            [value.numerator, value.denominator, witness]
            for value, witness in profile.finite_part
        ],
        "sequences": [list(row) for row in zip(count(profile.base), profile.max0, profile.min0)],
    }


def profile_to_json(profile: ElasticityProfile) -> str:
    return json.dumps(profile_to_dict(profile), separators=(",", ":"))

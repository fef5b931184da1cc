"""Exact decomposition of an elasticity set into a finite part plus tails.

Past the window base B0 = g_{k-1} g_k, the value of every element n is
determined by its residue class modulo the period g_1 g_k: the class
through window element n0 carries the monotone sequence
(M0 + t g_k) / (m0 + t g_1), t = 0, 1, 2, ..., increasing toward g_k/g_1.
The finite part records every value attained below B0 + period, so the
pair (finite part, sequences) describes the whole value set exactly and
membership of any rational is decidable by solving each sequence for t.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
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
    monoid: NumericalMonoid
    base: int
    period: int
    finite_part: tuple[tuple[Fraction, int], ...]  # (value, smallest witness >= 1)
    sequences: tuple[TailSequence, ...]
    _finite_lookup: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._finite_lookup = {value: witness for value, witness in self.finite_part}

    @property
    def limit(self) -> Fraction:
        return Fraction(self.monoid.gk, self.monoid.g1)


@dataclass(frozen=True)
class SequenceAlignment:
    """Affine match: source values v(t) equal target values at alpha*t + beta.

    Valid for t >= t0; earlier source values are checked individually.
    Constant sequences are matched to a constant target with alpha=1, beta=0.
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
    verdict carries the two-directional alignment certificate.
    """

    outcome: str
    witness: Fraction | None
    checked_bound: int
    certificate: tuple[tuple[SequenceAlignment, ...], tuple[SequenceAlignment, ...]] | None


def build_profile(S: NumericalMonoid) -> ElasticityProfile:
    """Finite part and tail sequences of the monoid's elasticity set."""
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
    seqs = []
    for n, big, small in iter_lengths(S, base, base + period - 1):
        first.setdefault((big, small), n)
        seqs.append(TailSequence(n, big, small, big * g1 == small * gk))
    if len(seqs) != period:
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
        tuple(seqs),
    )


def sequence_value(profile: ElasticityProfile, index: int, t: int) -> Fraction:
    """Value of the ``index``-th tail sequence after ``t`` periods."""
    if not 0 <= index < len(profile.sequences):
        raise IndexOutOfRange(f"no sequence {index}")
    if t < 0:
        raise IndexOutOfRange(f"step must be nonnegative, got {t}")
    seq = profile.sequences[index]
    gens = profile.monoid.generators
    return Fraction(seq.max0 + t * gens[-1], seq.min0 + t * gens[0])


def contains_elasticity(profile: ElasticityProfile, q) -> tuple[bool, int | None]:
    """Exact membership of ``q`` in the elasticity set, with a witness element.

    Checks the finite part, then solves q = (M0 + t g_k)/(m0 + t g_1) for an
    integer t >= 0 in each sequence.
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
    for seq in profile.sequences:
        tn = den * seq.max0 - num * seq.min0
        if tn % slope:
            continue
        t = tn // slope
        if t >= 0:
            return True, seq.n0 + t * profile.period
    return False, None


def _bounded_values(profile: ElasticityProfile, t_max: int) -> Iterator[tuple[int, int]]:
    """The finite part and every tail value up to step t_max, as (num, den) pairs.

    Sequences that start from the same (M0, m0) take the same values, so each
    start is walked once.  Tail pairs are not reduced; callers compare them
    through exact keys.
    """
    for value, _ in profile.finite_part:
        yield value.numerator, value.denominator
    g1, gk = profile.monoid.g1, profile.monoid.gk
    for big, small in {(seq.max0, seq.min0) for seq in profile.sequences}:
        for t in range(t_max + 1):
            yield big + t * gk, small + t * g1


def _max_denominator(profile: ElasticityProfile, t_max: int) -> int:
    """An upper bound on the denominators of _bounded_values."""
    finite = max(value.denominator for value, _ in profile.finite_part)
    tail = max(seq.min0 for seq in profile.sequences) + t_max * profile.monoid.g1
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


def _identity_holds(
    src: TailSequence, dst: TailSequence, alpha: int, beta: int,
    G: int, g: int, Gp: int, gp: int,
) -> bool:
    # (M0 + tG)(m0' + (alpha t + beta) g') == (M0' + (alpha t + beta) G')(m0 + t g)
    # compared coefficient by coefficient as polynomials in t
    if G * gp != Gp * g:
        return False
    lin_l = src.max0 * gp * alpha + G * dst.min0 + G * gp * beta
    lin_r = dst.max0 * g + alpha * Gp * src.min0 + beta * Gp * g
    if lin_l != lin_r:
        return False
    const_l = src.max0 * dst.min0 + src.max0 * gp * beta
    const_r = dst.max0 * src.min0 + beta * Gp * src.min0
    return const_l == const_r


def _align_sequences(
    src: ElasticityProfile, dst: ElasticityProfile, t_max: int
) -> list[SequenceAlignment] | None:
    """Affine alignment of every source sequence into some target sequence."""
    G, g = src.monoid.gk, src.monoid.g1
    Gp, gp = dst.monoid.gk, dst.monoid.g1
    constant_targets = [j for j, seq in enumerate(dst.sequences) if seq.constant]
    out: list[SequenceAlignment] = []
    for i, seq in enumerate(src.sequences):
        if seq.constant:
            if not constant_targets:
                return None
            out.append(SequenceAlignment(i, constant_targets[0], 1, 0, 0))
            continue
        D = seq.max0 * gp - Gp * seq.min0
        found = None
        for j, dseq in enumerate(dst.sequences):
            if dseq.constant:
                continue
            a_num = dseq.max0 * g - G * dseq.min0
            if a_num % D:
                continue
            alpha = a_num // D
            if alpha < 1:
                continue
            b_num = dseq.max0 * seq.min0 - seq.max0 * dseq.min0
            if b_num % D:
                continue
            beta = b_num // D
            t0 = 0 if beta >= 0 else (-beta + alpha - 1) // alpha
            if t0 > t_max:
                continue  # head values would not have been cross-checked
            if _identity_holds(seq, dseq, alpha, beta, G, g, Gp, gp):
                found = SequenceAlignment(i, j, alpha, beta, t0)
                break
        if found is None:
            return None
        out.append(found)
    return out


def compare_profiles(
    S1: NumericalMonoid, S2: NumericalMonoid, t_max: int = 50
) -> ComparisonVerdict:
    """Compare the elasticity sets of two monoids.

    Reports not_equal when the limits differ (the witness is the larger
    limit) or when a bounded value lies outside the other set.  A side's
    bounded values are its finite part plus its tail values up to step
    ``t_max``; the witness is the smallest value in the symmetric difference
    of the two bounded value sets that the other side's set lacks, taken
    from the first monoid's bounded values when one qualifies, else from the
    second's.  Reports equal only when every tail sequence of each side is
    affinely aligned into the other (a complete proof); otherwise unknown at
    the checked bound.
    """
    p1 = build_profile(S1)
    p2 = build_profile(S2)
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
        "sequences": [[s.n0, s.max0, s.min0] for s in profile.sequences],
    }


def profile_to_json(profile: ElasticityProfile) -> str:
    return json.dumps(profile_to_dict(profile), separators=(",", ":"))

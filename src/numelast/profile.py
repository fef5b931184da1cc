"""Exact decomposition of an elasticity set into a finite part plus tails.

Past the window base B0 = g_{k-1} g_k, the value of every element n is
determined by its residue class modulo the period g_1 g_k: class i, through
window element B0 + i, carries the monotone sequence (M0 + t g_k) / (m0 + t g_1),
t = 0, 1, 2, ..., increasing toward g_k/g_1, with M0 and m0 the lengths of
B0 + i.  The finite part maps each value attained below B0 + period to its
smallest witness; with the sequences it describes the whole value set, and
membership of any rational is decidable by solving each sequence for t.

A profile holds the finite part and an index of the distinct starts (M0, m0),
each mapped to its first class; the monoid's length tables give any class's.
Sequences with the same start take the same values, and there are far fewer
starts than classes (321 for the 3131 of <31,57,73,101>), so a certificate
holds one entry per start, naming the sequence a scan of every class would.

A build reads the length columns once, and not past the point where the
pairs repeat.  From the largest last breakpoint N0 of either modulus on,
M(n + g_1) = M(n) + 1 and m(n + g_k) = m(n) + 1, so the pair (M, m) of
n + period is that of n plus (g_k, g_1).  A build looks the monoid's
WindowTables up once, takes N0 from its last_breakpoint(), reads [1, N0)
and the one period [N0, N0 + period) from its columns in a single scan,
and derives the rest.  The period splits at lo = base - c period, the
lowest point at or past N0 a whole number c of periods below base: the
starts at base are the pairs of [lo, N0 + period) shifted by c periods and
those of [N0, lo) by c + 1, and the pairs of [N0 + period, base + period)
are the period's steps 1..c and [N0, lo)'s step c + 1.
Each row's pair becomes one 64-bit code, M 2**32 + m, formed in C by
writing the two int32 columns into the halves of one buffer (see
_pair_codes); only the first n of each distinct code in each range is
kept, and values, starts and lines are computed once per distinct pair.
<211,307,401> has N0 = 16386 and c = 1, so its build reads 100996 rows and
keeps 3059 codes, where a scan up to base + period would read 207717 rows
and keep 6405.

The finite part is kept in integers: each value M/m, with the lengths of its
smallest witness, under its exact key floor(M K / m), K = _key_scale(S, 0),
in increasing key order.  A membership query looks up its own key and
confirms the hit by cross-multiplying, so no Fraction is made; the Fraction
view ``finite_part`` is built only when read.

With y = m0 + t g_1 and J = g_k m0 - g_1 M0, the value at step t is
(g_k y - J)/(g_1 y): a tail is the ray y >= m0, y = m0 (mod g_1) on the line
J, and J > 0 unless the tail is flat at the limit.  A profile also indexes
its non-flat starts by line; by one rule, _lines_divisible_by, a membership
query visits only the lines that can hold its value (see
contains_elasticity), and an alignment only those a source line can join
(see _align_sequences).

A comparison first walks the first profile's smallest values upward (see
_first_side_witness); only if that finds no witness are both sides aligned
and the values the alignments leave cross-checked.
"""

from __future__ import annotations

import operator
import sys
from array import array
from collections import deque
from collections.abc import Iterator
from fractions import Fraction
from heapq import heapify, heappop, heapreplace, merge
from itertools import chain, filterfalse
from math import gcd

from .arithmetical import arithmetical_witness, elasticity_sets_equal_arithmetical
from .errors import IndexOutOfRange, InternalInconsistency, SingleGenerator, TableTooLarge
from .lengths import iter_row_text, max_length, min_length
from .monoid import (
    TABLE_LIMIT,
    NumericalMonoid,
    WindowTables,
    detect_arithmetical,
    max_elasticity,
    window_tables,
)
from .records import FrozenRecord

#: Default step bound t_max of compare_profiles and of the CLI's compare --tmax.
T_MAX = 50


class ElasticityProfile(FrozenRecord):
    """Finite part, tail start index and tail line index of one elasticity set.

    ``finite`` maps the key floor(M K / m), K = ``key_scale``, of each value
    M/m attained below base + period to (M, m, smallest witness), with the
    lengths M and m of that witness, so M/m need not be reduced; the key is
    exact, and its order is the order of the values.  ``finite_part`` is
    the same map as value -> witness, its Fractions built on each read.
    Class i, 0 <= i < period, starts at n0 = base + i with M0 = M(n0)
    and m0 = m(n0); it is flat at the limit when M0 g_1 = m0 g_k.  ``lines``
    maps each line J = g_k m0 - g_1 M0 > 0 of a non-flat start to the flat
    tuple (m0, first class, m0', first class', ...) of its starts, in
    ``starts`` order; flat starts (J = 0) have no line.
    """

    __slots__ = ("monoid", "base", "period", "finite", "key_scale", "starts", "lines")
    monoid: NumericalMonoid
    base: int
    period: int
    finite: dict[int, tuple[int, int, int]]  # floor(M K / m) -> (M, m, smallest n >= 1), by key
    key_scale: int  # K = _key_scale(monoid, 0)
    starts: dict[tuple[int, int], int]  # (M0, m0) -> its first class, in order of appearance
    lines: dict[int, tuple[int, ...]]  # J -> (m0, first class, ...), in increasing J

    def __init__(self, monoid, base, period, finite, key_scale, starts, lines):
        object.__setattr__(self, "monoid", monoid)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "finite", finite)
        object.__setattr__(self, "key_scale", key_scale)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "lines", lines)

    @property
    def finite_part(self) -> dict[Fraction, int]:
        """Value -> smallest witness >= 1, in increasing value: ``finite``
        as Fractions, built on each read."""
        return {Fraction(big, small): n for big, small, n in self.finite.values()}

    @property
    def limit(self) -> Fraction:
        return Fraction(self.monoid.gk, self.monoid.g1)

    @property
    def sequences(self) -> range:
        """n0 = base + i, the first element of class i's sequence."""
        return range(self.base, self.base + self.period)


class SequenceAlignment(FrozenRecord):
    """Affine match: source values v(t) equal target values at alpha*t + beta.

    ``source`` and ``target`` are the first classes of two tail starts; the
    match holds for every source class with that start.  Valid for t >= t0;
    earlier source values are checked individually.  Constant sequences are
    matched to a constant target with alpha=1, beta=0.
    """

    __slots__ = ("source", "target", "alpha", "beta", "t0")
    source: int
    target: int
    alpha: int
    beta: int
    t0: int

    def __init__(self, source, target, alpha, beta, t0):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "t0", t0)


class ComparisonVerdict(FrozenRecord):
    """Result of comparing two elasticity sets.

    ``outcome`` is "equal", "not_equal" or "unknown", and ``reason`` the rule
    that decided it.  A not_equal verdict carries a witness value lying in
    exactly one set.  An "alignment" equal verdict carries one alignment per
    source start each way, in ``starts`` order; a "theorem" or "limits" one
    carries none.
    """

    __slots__ = ("outcome", "witness", "certificate", "reason")
    outcome: str
    witness: Fraction | None
    certificate: tuple[tuple[SequenceAlignment, ...], tuple[SequenceAlignment, ...]] | None
    reason: str

    def __init__(self, outcome, witness, certificate, reason):
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "reason", reason)


def _key_scale(S: NumericalMonoid, t_max: int) -> int:
    """K such that floor(v K) keys the finite part and the tail values up to
    step ``t_max`` exactly and in order.  Every factor is at least g_1, so
    m(n) <= M(n) <= n/g_1.  Finite values come from n < base + period =
    (g_{k-1} + g_1) g_k, and a tail value at step t has the denominator
    m0 + t g_1 with m0 = m(n0) for some n0 in that range; so no denominator
    exceeds D below.  Distinct values with denominators <= D differ by at
    least 1/D^2 > 1/K, so their keys differ, in the same order."""
    D = (S.generators[-2] + S.g1) * S.gk // S.g1 + t_max * S.g1
    return D * D + 1


#: The 64-bit code of a row's lengths, M 2**32 + m, holds M in its high half
#: and m in its low one.
_HALF = 1 << 32
# the array('i') slot of each pair that holds a code's high half
_HIGH = 1 if sys.byteorder == "little" else 0


def _pair_codes(big, small) -> memoryview:
    """The rows of an M and an m column as one 64-bit code each, formed in
    C: the columns fill the alternating halves of one buffer, read back as
    int64.  divmod(code, 2**32) gives (M, m) for every m >= 0.

    The packing is exact only for array('i') columns, and every column
    build_profile reads is one, as _ramp picks that type for lengths below
    2**31.  Each n read is below base + period = (g_{k-1} + g_1) g_k
    <= 2 g_{k-1} g_k, and TABLE_LIMIT gives (g_k - 1) g_{k-1} < 5 10**6
    with g_{k-1} <= g_k - 1, so g_{k-1} g_k < 10**7 and n < 2 10**7.  The
    M column's ramp stays below (b - 1)/g_1 < 2 10**7; the m column's below
    (b - 1 + vtop)/g_k, where vtop = g_k m(s) - s for a breakpoint s within
    the window, so vtop/g_k <= m(s) <= s < 5 10**6.  Every length is thus
    below 2.5 10**7 < 2**31, and any other column is a library fault, not
    an input to fall back on."""
    if not (type(big) is type(small) is array and big.typecode == small.typecode == "i"):
        raise InternalInconsistency(
            f"length columns of {type(big).__name__}/{type(small).__name__}, not array('i')"
        )
    pairs = array("i", [0]) * (2 * len(big))
    pairs[_HIGH::2] = big
    pairs[1 - _HIGH::2] = small
    return memoryview(pairs).cast("B").cast("q")


def _first_codes(tables: WindowTables, cuts: tuple[int, ...]) -> list[dict[int, int]]:
    """For each range [cuts[j], cuts[j + 1]), the 64-bit code M(n) 2**32 +
    m(n) of _pair_codes -> the smallest n in that range with those lengths,
    in order of first appearance, for the monoid elements n.  One pass over
    the columns of ``tables`` serves every range: each chunk's codes are
    sliced at the cuts."""
    firsts: list[dict[int, int]] = [{} for _ in cuts[1:]]
    for start, big, small in tables.columns(cuts[0], cuts[-1] - 1):
        codes = _pair_codes(big, small)
        end = start + len(codes)
        for first, a, b in zip(firsts, cuts, cuts[1:]):
            a, b = max(a, start), min(b, end)
            if a < b:
                deque(map(first.setdefault, codes[a - start : b - start], range(a, b)), maxlen=0)
        del codes, big, small  # free this chunk's buffer before the next is written
    for first in firsts:
        first.pop(-1, None)  # the gap pair (-1, -1) of every n outside the monoid, all bits set
    return firsts


def build_profile(S: NumericalMonoid) -> ElasticityProfile:
    """Finite part, tail starts and tail lines of the monoid's elasticity set.

    Looks the monoid's tables up once and reads their columns over [1, N0)
    and the one period [N0, N0 + period) only, N0 = last_breakpoint(), the
    largest last breakpoint of either modulus: past N0 a pair grows by
    (g_k, g_1) each period.  With c = (base - N0) // period and
    lo = base - c period, so N0 <= lo < N0 + period, the period
    splits at lo: the rows n of ``late`` = [lo, N0 + period) give the
    classes n - lo shifted by c periods, those of ``early`` = [N0, lo) the
    classes n + period - lo shifted by c + 1.  The starts take late's pairs
    first, then early's new ones, so each keeps its first class.  A single
    scan keeps the first n of each distinct pair in each range, as one
    64-bit code formed in C; values, starts and lines are then computed once
    per pair.  The finite part takes the pairs in increasing n (the
    window's, early's and late's, then early's and late's steps 1..c, then
    early's step c + 1, which ends at base + period), so the first pair of a
    value gives its smallest witness, and a line lists its starts in
    ``starts`` order."""
    if len(S.generators) == 1:
        raise SingleGenerator("the value set of <1> is just {1}")
    g1, gk = S.g1, S.gk
    base, period = S.generators[-2] * gk, g1 * gk
    tables = window_tables(S.generators)
    N0 = tables.last_breakpoint()  # in the window, below base, so c >= 0
    c = (base - N0) // period
    lo = base - c * period
    window, early, late = _first_codes(tables, (1, N0, lo, N0 + period))
    shift = gk * _HALF + g1  # a code's growth per period past N0

    def moved(first: dict[int, int], t: int) -> Iterator[tuple[int, int]]:
        """The pairs of ``first``'s range t periods on, first n each."""
        return zip(map((t * shift).__add__, first), map((t * period).__add__, first.values()))

    # the pairs of [N0 + period, base + period) in increasing n: the period
    # at steps 1..c, then early at step c + 1
    steps = [moved(part, t) for t in range(1, c + 1) for part in (early, late)]
    K = _key_scale(S, 0)
    finite: dict[int, tuple[int, int, int]] = {}  # floor(M K / m) -> (M, m, smallest n)
    for code, n in chain(window.items(), early.items(), late.items(), *steps, moved(early, c + 1)):
        big, small = divmod(code, _HALF)
        finite.setdefault(big * K // small, (big, small, n))
    # the pairs of [base, base + period), late's classes first
    lift = c * shift
    starts = {divmod(code + lift, _HALF): n - lo for code, n in late.items()}
    for code, n in early.items():
        starts.setdefault(divmod(code + lift + shift, _HALF), n + period - lo)
    lines: dict[int, tuple[int, ...]] = {}
    for (big, small), i in starts.items():
        J = gk * small - g1 * big
        if J:
            lines[J] = lines.get(J, ()) + (small, i)
    return ElasticityProfile(
        S,
        base,
        period,
        {key: finite[key] for key in sorted(finite)},
        K,
        starts,
        {J: lines[J] for J in sorted(lines)},
    )


def sequence_value(profile: ElasticityProfile, index: int, t: int) -> Fraction:
    """Value of the ``index``-th tail sequence after ``t`` periods; both
    are ints (TypeError otherwise)."""
    index, t = operator.index(index), operator.index(t)
    if not 0 <= index < profile.period:
        raise IndexOutOfRange(f"no sequence {index}")
    if t < 0:
        raise IndexOutOfRange(f"step must be nonnegative, got {t}")
    S, n0 = profile.monoid, profile.base + index
    return Fraction(max_length(S, n0) + t * S.gk, min_length(S, n0) + t * S.g1)


def _lines_divisible_by(lines: dict[int, tuple[int, ...]], step: int) -> Iterator[int]:
    """Each line J of ``lines`` that ``step`` divides, in increasing J: by
    looking up the multiples of step up to the largest line, or by one pass
    over every line when those multiples are more."""
    top = next(reversed(lines), 0)
    if top // step < len(lines):
        return filter(lines.__contains__, range(step, top + 1, step))
    return filterfalse(step.__rmod__, lines)  # step.__rmod__(J) is J % step


def contains_elasticity(profile: ElasticityProfile, q) -> tuple[bool, int | None]:
    """Exact membership of ``q`` in the elasticity set, with a witness element.

    Looks ``q`` = num/den up in the finite part by its key num K // den and
    confirms a hit by M den = num m: every finite value has its own key, but
    a query of larger denominator may share one without being that value.
    Else solves q = (g_k y - J)/(g_1 y) on the tail lines.  With
    u = den g_k - num g_1 > 0, a line J holds q iff u divides den J, that
    is iff J is a multiple of s = u/gcd(den, u), at y = den J/u; a start
    (m0, i) on it attains q iff m0 <= y and y = m0 (mod g_1), at step
    t = (y - m0)/g_1.  The query visits the lines that s divides, as
    _align_sequences does.  The witness lies in the hit start of smallest
    first class, as a scan of every class would find it.
    """
    if type(q) is not Fraction:
        q = Fraction(q)
    num, den = q.numerator, q.denominator
    hit = profile.finite.get(num * profile.key_scale // den)
    if hit is not None and hit[0] * den == num * hit[1]:
        return True, hit[2]
    gens = profile.monoid.generators
    g1, gk = gens[0], gens[-1]
    # Every finite value lies in [1, g_k/g_1], and the finite part holds
    # g_k/g_1 itself: M(g_1 g_k) = g_k (g_k copies of g_1, no factor is
    # smaller) and m(g_1 g_k) = g_1 (g_1 copies of g_k, no factor is
    # larger), and g_1 g_k <= g_{k-1} g_k = base lies below the end of the
    # finite part.  So a tail value has num < den g_k/g_1, that is u > 0.
    u = den * gk - num * g1
    if num < den or u <= 0:
        return False, None
    lines = profile.lines
    best = None  # (first class, step t) of the hit start of smallest first class
    for J in _lines_divisible_by(lines, u // gcd(den, u)):
        line, y = lines[J], den * J // u
        for k in range(0, len(line), 2):  # in starts order: the first hit is this line's best
            m0 = line[k]
            if m0 <= y and (y - m0) % g1 == 0:
                if best is None or line[k + 1] < best[0]:
                    best = line[k + 1], (y - m0) // g1
                break
    if best is None:
        return False, None
    return True, profile.base + best[0] + best[1] * profile.period


def _align_sequences(
    src: ElasticityProfile, dst: ElasticityProfile, t_max: int
) -> list[SequenceAlignment | None]:
    """Affine alignment of each source start into the first target start
    that fits from some t0 <= t_max, or None, in ``starts`` order.

    Each distinct source start is solved once.  With equal limits, a ray on
    source line J0 aligns with factor alpha into one on target line J1 only
    when J1 g^2 = alpha g'^2 J0 (g = g_1, g' = g_1').  So the walk visits
    the target lines that s = g'^2 J0 / gcd(g'^2 J0, g^2) divides, as
    contains_elasticity does, and keeps the fit of smallest first class, as
    a scan would.
    """
    G, g = src.monoid.gk, src.monoid.g1
    Gp, gp = dst.monoid.gk, dst.monoid.g1
    # always found: n = c g_1 g_k in the window has M(n) = n/g_1, m(n) = n/g_k
    constant_target = next(j for (M1, m1), j in dst.starts.items() if M1 * gp == m1 * Gp)
    lines = dst.lines
    out: list[SequenceAlignment | None] = []
    for (M0, m0), i in src.starts.items():
        J0 = G * m0 - g * M0
        if not J0:  # the whole tail is flat at the limit
            out.append(SequenceAlignment(i, constant_target, 1, 0, 0))
            continue
        # The rays y = m0 + t g on J0 and y' = m1 + t' g' on J1 take equal
        # values where J1 g y = J0 g' y', the limits being equal.  With t' =
        # alpha t + beta that holds for every t iff alpha is as above and
        # b_num = g m0 J1 - g' m1 J0 = beta g'^2 J0.
        scaled = gp * gp * J0
        step = scaled // gcd(scaled, g * g)
        best = None  # (target, alpha, beta, t0) of the fit of smallest first class
        for J1 in _lines_divisible_by(lines, step):
            line, alpha = lines[J1], J1 * g * g // scaled
            for k in range(0, len(line), 2):  # in starts order
                m1, j = line[k], line[k + 1]
                if best is not None and j >= best[0]:
                    break
                b_num = g * m0 * J1 - gp * m1 * J0
                if b_num % scaled:
                    continue
                beta = b_num // scaled
                t0 = 0 if beta >= 0 else (-beta + alpha - 1) // alpha
                if t0 <= t_max:  # head values are cross-checked only up to t_max
                    best = j, alpha, beta, t0
                    break
        out.append(None if best is None else SequenceAlignment(i, *best))
    return out


def _unaligned_values(
    profile: ElasticityProfile, alignments: list[SequenceAlignment | None], K: int, t_max: int
) -> dict[int, tuple[int, int]]:
    """floor(v K) -> (num, den), not reduced, for each value v up to step t_max
    that no alignment places in the other set: the finite part, the heads
    t < t0 of aligned starts and every step of unaligned ones.  K is at least
    the monoid's _key_scale at t_max, so each key is exact."""
    left = {big * K // small: (big, small) for big, small, _ in profile.finite.values()}
    g1, gk = profile.monoid.g1, profile.monoid.gk
    for (big, small), a in zip(profile.starts, alignments):
        for t in range(t_max + 1 if a is None else a.t0):
            num, den = big + t * gk, small + t * g1
            left[num * K // den] = num, den
    return left


def _first_side_witness(
    p1: ElasticityProfile, p2: ElasticityProfile, K: int, t_max: int
) -> Fraction | None:
    """Walks p1's bounded values in increasing floor(v K) up to the first
    that is no finite value of p2 (a key hit, confirmed by cross-multiplying),
    and returns that value if R(S2) lacks it, else None.  The values are the
    finite part, in key order, merged by a heap with each non-flat start's
    steps t = 1, ..., t_max (a start's step 0, and a flat start's every
    step, lie in the finite part).  Every smaller bounded value of p1 lies
    in R(S2), so a returned value is min(bounded(p1) - R(S2)): the full
    cross-check's first-side witness, since the values it drops lie in
    R(S2), in the other side's bounded set or aligned from step t0 on."""
    g1, gk = p1.monoid.g1, p1.monoid.gk
    heap = [((M + gk) * K // (m + g1), M + gk, m + g1, 1) for M, m in p1.starts if gk * m - g1 * M]
    heapify(heap)

    def tail_values():
        while heap:
            _, num, den, t = heap[0]
            step = (num + gk) * K // (den + g1), num + gk, den + g1, t + 1
            yield heapreplace(heap, step) if t < t_max else heappop(heap)

    finite = ((M * K // m, M, m, 0) for M, m, _ in p1.finite.values())
    K2, other = p2.key_scale, p2.finite
    for _, num, den, _ in merge(finite, tail_values() if t_max else ()):
        hit = other.get(num * K2 // den)
        if hit is None or hit[0] * den != num * hit[1]:
            value = Fraction(num, den)
            return None if contains_elasticity(p2, value)[0] else value
    return None


def compare_profiles(
    S1: NumericalMonoid, S2: NumericalMonoid, t_max: int = T_MAX
) -> ComparisonVerdict:
    """Compare two monoids' elasticity sets: two arithmetic progressions by the
    theorem, with arithmetical_witness's witness; others with differing limits
    by those, as compare_built_profiles would; two copies of <1>, whose sets
    are {1}, as equal by their limits; the rest by compare_built_profiles.
    Refuses a ``t_max`` that is no int (TypeError) or is negative
    (IndexOutOfRange) before any work, and one with 2 (t_max + 1) >
    TABLE_LIMIT (TableTooLarge), which no two profiles, each with a start,
    can meet, before any table is built."""
    t_max = operator.index(t_max)
    if t_max < 0:
        raise IndexOutOfRange(f"step bound must be nonnegative, got {t_max}")
    a1, a2 = detect_arithmetical(S1), detect_arithmetical(S2)
    if a1 is not None and a2 is not None:
        if elasticity_sets_equal_arithmetical(a1, a2):
            return ComparisonVerdict("equal", None, None, "theorem")
        return ComparisonVerdict("not_equal", arithmetical_witness(a1, a2), None, "theorem")
    limits = max_elasticity(S1), max_elasticity(S2)
    if limits[0] != limits[1]:
        return ComparisonVerdict("not_equal", max(limits), None, "limits")
    if limits[0] == 1:  # g_k/g_1 = 1 only for k = 1: both monoids are <1>
        return ComparisonVerdict("equal", None, None, "limits")
    if 2 * (t_max + 1) > TABLE_LIMIT:
        raise TableTooLarge(f"cross-checking to step {t_max} exceeds the limit {TABLE_LIMIT}")
    return compare_built_profiles(build_profile(S1), build_profile(S2), t_max)


def compare_built_profiles(
    p1: ElasticityProfile, p2: ElasticityProfile, t_max: int = T_MAX
) -> ComparisonVerdict:
    """Compare the elasticity sets of two built profiles.

    Reports not_equal ("limits") when the limits differ, with the larger
    limit as the witness.  A side's bounded values are its finite part plus
    its tail values up to step ``t_max``, keyed by floor(v K), K the larger
    _key_scale of the two monoids at ``t_max``.  The witness ("cross-check")
    is the one a full cross-check would find: the smallest value of the
    symmetric difference of the two bounded value sets that the other
    side's set lacks, from the first profile's values when one qualifies,
    else from the second's.  The first profile's smallest values are walked
    first, until one is not a finite value of the second; that settles the
    verdict when the second set lacks it (see _first_side_witness).  Else
    each start is aligned, and only the values the alignments leave are
    cross-checked: aligned values from step t0 on lie in the other set.
    Reports equal ("alignment") only when every start of each side is
    aligned into the other, a complete proof; otherwise unknown
    ("unaligned") at the checked bound.

    Raises TypeError for a ``t_max`` that is no int, IndexOutOfRange for a
    negative one, and TableTooLarge when the tail values to cross-check,
    (starts of both sides) * (t_max + 1), exceed TABLE_LIMIT; all before any
    value is built.
    """
    t_max = operator.index(t_max)
    if t_max < 0:
        raise IndexOutOfRange(f"step bound must be nonnegative, got {t_max}")
    tail_values = (len(p1.starts) + len(p2.starts)) * (t_max + 1)
    if tail_values > TABLE_LIMIT:
        raise TableTooLarge(
            f"cross-checking to step {t_max} needs {tail_values} tail values, "
            f"above the limit {TABLE_LIMIT}"
        )
    if p1.limit != p2.limit:
        return ComparisonVerdict("not_equal", max(p1.limit, p2.limit), None, "limits")
    K = max(_key_scale(p1.monoid, t_max), _key_scale(p2.monoid, t_max))
    witness = _first_side_witness(p1, p2, K, t_max)
    if witness is not None:
        return ComparisonVerdict("not_equal", witness, None, "cross-check")
    forward = _align_sequences(p1, p2, t_max)
    backward = _align_sequences(p2, p1, t_max)
    left1 = _unaligned_values(p1, forward, K, t_max)
    left2 = _unaligned_values(p2, backward, K, t_max)
    for left, other, dst in ((left1, left2, p2), (left2, left1, p1)):
        for key in sorted(left.keys() - other.keys()):
            value = Fraction(*left[key])
            if not contains_elasticity(dst, value)[0]:
                return ComparisonVerdict("not_equal", value, None, "cross-check")
    if None not in forward and None not in backward:
        proof = (tuple(forward), tuple(backward))
        return ComparisonVerdict("equal", None, proof, "alignment")
    return ComparisonVerdict("unknown", None, None, "unaligned")


def profile_json_pieces(profile: ElasticityProfile) -> Iterator[str]:
    """Compact JSON, in pieces: the generators, base, period and the finite
    part as [num,den,witness] in increasing value, as one piece; then the
    [n,M,m] row of each class, read from the length columns, as one piece
    per slice of at most WRITE_CHUNK rows; then the close."""
    S, base, end = profile.monoid, profile.base, profile.base + profile.period - 1
    finite = ",".join(
        "[%d,%d,%d]" % (big // (g := gcd(big, small)), small // g, n)
        for big, small, n in profile.finite.values()
    )
    yield '{"generators":[%s],"base":%d,"period":%d,"finite_part":[%s],"sequences":[' % (
        ",".join(map(str, S.generators)), base, profile.period, finite
    )
    # every class: base lies past the Frobenius number; each row opens with
    # a comma, cut from the first
    slices = iter_row_text(S, base, end, ",[", ",%d,%d]".__mod__)
    yield next(slices)[1:]
    yield from slices
    yield "]}"


def profile_to_json(profile: ElasticityProfile) -> str:
    """The whole compact JSON of :func:`profile_json_pieces`, as one string."""
    return "".join(profile_json_pieces(profile))

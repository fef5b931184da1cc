"""Brute-force reference implementations the tests check the library against.

Everything here works by exhaustive enumeration of exponent vectors and
knows nothing about the library's tables, recurrences or parametrizations.
The only optimization is vectorizing the innermost exponent loop (the
smallest generator) with numpy.
"""

from array import array
from fractions import Fraction
from math import gcd

import numpy as np

_ABSENT = np.iinfo(np.int64).max // 2


def enumerate_factorizations(gens, n):
    """All exponent tuples over ``gens`` summing to ``n``, unordered."""
    out = []
    expo = [0] * len(gens)

    def rec(i, rem):
        if i == 0:
            if rem % gens[0] == 0:
                expo[0] = rem // gens[0]
                out.append(tuple(expo))
            return
        for e in range(rem // gens[i] + 1):
            expo[i] = e
            rec(i - 1, rem - e * gens[i])
        expo[i] = 0

    rec(len(gens) - 1, n)
    return out


def length_arrays(gens, limit):
    """(max_len, min_len) arrays for all values 0..limit; -1/_ABSENT outside."""
    gens = tuple(gens)
    g1 = gens[0]
    maxs = np.full(limit + 1, -1, dtype=np.int64)
    mins = np.full(limit + 1, _ABSENT, dtype=np.int64)

    def rec(i, partial, count):
        if i == 0:
            room = limit - partial
            steps = room // g1 + 1
            view_max = maxs[partial : partial + (steps - 1) * g1 + 1 : g1]
            view_min = mins[partial : partial + (steps - 1) * g1 + 1 : g1]
            lengths = count + np.arange(steps, dtype=np.int64)
            np.maximum(view_max, lengths, out=view_max)
            np.minimum(view_min, lengths, out=view_min)
            return
        g = gens[i]
        for e in range((limit - partial) // g + 1):
            rec(i - 1, partial + e * g, count + e)

    rec(len(gens) - 1, 0, 0)
    return maxs, mins


def membership(gens, limit):
    """Boolean list: value v is a combination of ``gens`` (v = 0..limit)."""
    maxs, _ = length_arrays(gens, limit)
    return [bool(v >= 0) for v in maxs]


def elasticity_map(gens, limit):
    """n -> max_len/min_len for every representable 1 <= n <= limit."""
    maxs, mins = length_arrays(gens, limit)
    return {
        n: Fraction(int(maxs[n]), int(mins[n]))
        for n in range(1, limit + 1)
        if maxs[n] >= 0
    }


def recurrence_length_arrays(gens, limit):
    """Same arrays via the defining one-atom recurrences, full range.

    Slower-but-simple reference covering bounds where vector enumeration
    is infeasible; no windowed tables, no eventual-step shortcuts.  Its
    agreement with :func:`length_arrays` is itself a test.
    """
    gens = tuple(gens)
    maxs = [-1] * (limit + 1)
    mins = [_ABSENT] * (limit + 1)
    maxs[0] = 0
    mins[0] = 0
    for n in range(1, limit + 1):
        for g in gens:
            if g > n:
                break
            if maxs[n - g] >= 0:
                if maxs[n - g] + 1 > maxs[n]:
                    maxs[n] = maxs[n - g] + 1
                if mins[n - g] + 1 < mins[n]:
                    mins[n] = mins[n - g] + 1
    return maxs, mins


def recurrence_elasticity_map(gens, limit):
    maxs, mins = recurrence_length_arrays(gens, limit)
    return {
        n: Fraction(maxs[n], mins[n]) for n in range(1, limit + 1) if maxs[n] >= 0
    }


def dp_fill(gens, limit):
    """(M, m, gap) by the recurrences above: M(n) and m(n) over the sorted
    ``gens`` for n = 0..limit, both -1 where n is no combination of them,
    and the largest such n (-1 if none).  The library's window fill returns
    the same triple, in the same array type."""
    maxs, mins = recurrence_length_arrays(gens, limit)
    gaps = [n for n, big in enumerate(maxs) if big < 0]
    return (
        array("i", maxs),
        array("i", [small if big >= 0 else -1 for big, small in zip(maxs, mins)]),
        gaps[-1] if gaps else -1,
    )


def three_smallest_distinct(values):
    seen = sorted(set(values))
    assert len(seen) >= 3
    return tuple(seen[:3])


def length_set_family(gens, bound):
    """Every length set L(n) with max L(n) <= ``bound``, as a bitset (bit l
    set for length l), mapped to the smallest n that has it.

    L(0) = {0} and L(n) = union of L(n - g) + 1 over the generators g <= n,
    by one int per n.  An element of length at most ``bound`` is at most
    ``bound`` g_k, so scanning n up to there finds every such set.
    """
    gens = sorted(gens)
    sets = [1]
    for n in range(1, bound * gens[-1] + 1):
        bits = 0
        for g in gens:
            if g > n:
                break
            bits |= sets[n - g]
        sets.append(bits << 1)
    family = {}
    for n, bits in enumerate(sets):
        if bits and bits.bit_length() <= bound + 1:
            family.setdefault(bits, n)
    return family


def start_scan_membership(profile, finite, q):
    """(found, witness) for ``q`` by ``finite``, the profile's finite part as
    value -> smallest witness, and then by solving q (m0 + t g_1) = M0 + t g_k
    for an integer t >= 0 from each distinct tail start, in ``starts`` order:
    the first that solves it gives the witness base + i + t period, i its
    first class.  It reads only the profile's monoid, base, period and public
    ``starts``, not its line index; callers build ``finite`` once a profile."""
    q = Fraction(q)
    g1, gk = profile.monoid.g1, profile.monoid.gk
    if q < 1 or q > Fraction(gk, g1):
        return False, None
    witness = finite.get(q)
    if witness is not None:
        return True, witness
    num, den = q.numerator, q.denominator
    slope = num * g1 - den * gk  # below the limit, which the finite part holds
    for (big, small), i in profile.starts.items():
        t, rem = divmod(den * big - num * small, slope)
        if rem == 0 and t >= 0:
            return True, profile.base + i + t * profile.period
    return False, None



def slope_walk_alignment(src, dst, t_max):
    """The alignment of each source start of ``src`` into ``dst``, two
    profiles of equal limit, by the walk the library used before its line
    index: the non-flat target starts keyed by a_num = M1 g - G m1, read at
    a_num = D, 2D, ... down to the lowest key for each non-flat source start
    (M0, m0), D = M0 g' - G' m0, keeping the fit of smallest target index.
    It reads only the profiles' monoids and public ``starts``, not their
    line index."""
    from numelast import SequenceAlignment  # here: perfbench imports this module without numelast

    G, g = src.monoid.gk, src.monoid.g1
    Gp, gp = dst.monoid.gk, dst.monoid.g1
    by_slope = {}  # a_num -> targets, in starts order
    for (M1, m1), j in dst.starts.items():
        if M1 * gp != m1 * Gp:
            by_slope.setdefault(M1 * g - G * m1, []).append((j, M1, m1))
    lowest = min(by_slope)
    constant_target = next(j for (M1, m1), j in dst.starts.items() if M1 * gp == m1 * Gp)
    out = []
    for (M0, m0), i in src.starts.items():
        if M0 * g == m0 * G:  # the whole tail is flat at the limit
            out.append(SequenceAlignment(i, constant_target, 1, 0, 0))
            continue
        # alpha D = a_num and beta D = b_num; D < 0 and every a_num < 0
        D = M0 * gp - Gp * m0
        best = None
        for a_num in range(D, lowest - 1, D):
            alpha = a_num // D
            for j, M1, m1 in by_slope.get(a_num, ()):
                if best is not None and j >= best.target:
                    break
                b_num = M1 * m0 - M0 * m1
                if b_num % D:
                    continue
                beta = b_num // D
                t0 = 0 if beta >= 0 else (-beta + alpha - 1) // alpha
                if t0 <= t_max:
                    best = SequenceAlignment(i, j, alpha, beta, t0)
                    break
        out.append(best)
    return out

def row_scan_profile(gens, rows):
    """(finite, starts, lines) of the profile of the monoid with minimal
    generators ``gens``, by one pass over ``rows``, its (n, M(n), m(n)) for
    every element 1 <= n < base + period in increasing n, base = g_{k-1} g_k
    and period = g_1 g_k.  ``finite`` lists (num, den, n) for each value
    M/m = num/den in lowest terms, n its smallest element, in increasing
    value; ``starts`` maps each pair (M, m) of an n >= base to its first
    class n - base, in order of first appearance; and ``lines`` maps each
    J = g_k m - g_1 M > 0 of a start to the flat tuple (m, first class, ...)
    of its starts in that order, in increasing J."""
    g1, gk = gens[0], gens[-1]
    base, end = gens[-2] * gk, (gens[-2] + g1) * gk
    below, starts = {}, {}  # (M, m) -> its first n, below base and from base
    for n, big, small in rows:
        seen = starts if n >= base else below
        if (big, small) not in seen:
            seen[big, small] = n
    finite = {}
    for (big, small), n in [*below.items(), *starts.items()]:
        d = gcd(big, small)
        value = big // d, small // d
        finite[value] = min(n, finite.get(value, n))
    # m <= M <= n/g_1 < end: two values with denominators below end differ
    # by more than 1/end^2, so floor(v end^2) orders them exactly
    scale = end * end
    finite = sorted(
        ((num, den, n) for (num, den), n in finite.items()), key=lambda v: v[0] * scale // v[1]
    )
    lines = {}
    for (big, small), n in starts.items():
        J = gk * small - g1 * big
        if J:
            lines[J] = lines.get(J, ()) + (small, n - base)
    starts = {pair: n - base for pair, n in starts.items()}
    return finite, starts, dict(sorted(lines.items()))

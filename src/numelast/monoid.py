"""Numerical monoids: validated generating sets and their length functions.

A numerical monoid is a co-finite additive submonoid of the nonnegative
integers, stored here by its minimal generating set g_1 < ... < g_k with
gcd 1.  Within each residue class mod g_1 the maximal factorization length
M(n) rises by one per step of g_1 and restarts at finitely many
breakpoints, and so does the minimal length m(n) mod g_k.  One
:class:`WindowTables` object per monoid holds those breakpoints, found by
one label-setting pass per modulus, and the Frobenius number (the largest
integer outside the monoid): the first breakpoints mod g_1 are the Apery
set.  Membership, the Frobenius number, every length query and every row scan
read that object, which is built once per generating set and kept in one
bounded cache; a row scan reads columns of M and m written from it one
chunk at a time, and keeps none.  The constructor validates a generating
set; new_monoid caps and normalizes it."""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import chain
from math import gcd

from .errors import (
    EmptyInput,
    GeneratorTooLarge,
    InternalInconsistency,
    NonCoprime,
    TableTooLarge,
    ZeroGenerator,
)
from .records import FrozenRecord

#: Cap on the largest generator new_monoid accepts.
MAX_GENERATOR = 10**6

#: Most window entries of M and m together, 2 ((g_k - 1) g_{k-1} + 1), one
#: monoid may take: it bounds the breakpoints (at most one per entry) and, by
#: profile._pair_codes, keeps every length below 2**31.  Larger monoids raise
#: TableTooLarge before any work.  compare_built_profiles bounds its tail values
#: by it, and the plot command the integers of its range (16 bytes a point).
TABLE_LIMIT = 10**7

#: Least number of entries in one chunk of length columns, and most rows in
#: one slice of the command line's output, which is one write: rows and
#: output stream in chunks of about this many, so memory does not grow with
#: the length of a range
WRITE_CHUNK = 4096

#: Monoids whose tables stay cached: a comparison reads two at a time, every
#: other caller one.
TABLE_CACHE_SIZE = 4


class NumericalMonoid(FrozenRecord):
    """Additive submonoid of N with minimal generators ``g_1 < ... < g_k``.

    Instances are assumed minimal.  Use :func:`new_monoid` to normalize raw
    input (sorting, deduplication, removal of redundant generators).
    """

    __slots__ = ("generators",)
    generators: tuple[int, ...]

    def __init__(self, generators):
        gens = tuple(map(operator.index, generators))  # TypeError for 2.7 or "3"
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise EmptyInput("need at least one generator")
        if any(g < 1 for g in gens):
            raise ZeroGenerator(f"generators must be positive: {gens}")
        if any(b <= a for a, b in zip(gens, gens[1:])):
            raise ValueError(f"generators must be strictly increasing: {gens}")
        if gcd(*gens) != 1:
            raise NonCoprime(f"gcd of {gens} is {gcd(*gens)}, expected 1")

    @property
    def g1(self) -> int:
        return self.generators[0]

    @property
    def gk(self) -> int:
        return self.generators[-1]

    def __contains__(self, n) -> bool:
        return contains(self, n)

    def __str__(self) -> str:
        return "<" + ",".join(str(g) for g in self.generators) + ">"


class ArithmeticalParams(FrozenRecord):
    """Parameters (a, d, k) of the monoid generated by a, a+d, ..., a+kd.

    Requires gcd(a, d) = 1 and 1 <= k < a, the standing assumptions under
    which the progression is a minimal generating set.
    """

    __slots__ = ("a", "d", "k")
    a: int
    d: int
    k: int

    def __init__(self, a, d, k):
        if min(a, d, k) < 1:
            raise ValueError("a, d and k must be positive")
        if gcd(a, d) != 1:
            raise ValueError(f"gcd(a={a}, d={d}) must be 1")
        if not k < a:
            raise ValueError(f"need k < a, got k={k}, a={a}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "k", k)

    def generators(self) -> tuple[int, ...]:
        return tuple(self.a + i * self.d for i in range(self.k + 1))

    def monoid(self) -> NumericalMonoid:
        # The progression is its own minimal generating set: a sum of s >= 2
        # generators is s*a + (multiple of d), so it can equal a + j*d only if
        # d divides (s-1)*a, that is d | s-1; then it is at least
        # a + (s-1)*a >= a + d*a > a + k*d, beyond every generator.
        return new_monoid(self.generators())

    def step_bound(self) -> Fraction:
        """Supremum of the elasticity set, (a + kd)/a."""
        return Fraction(self.a + self.k * self.d, self.a)


def new_monoid(raw) -> NumericalMonoid:
    """Build the monoid generated by ``raw``.

    Sorts, deduplicates, and drops generators representable over the smaller
    ones: g is kept iff M(g) = 1 over the raw set, which the first breakpoint
    (s, W) of M in its class mod g_1 decides.  As g is a sum in its class,
    s <= g; s < g gives g = s + c g_1 with c >= 1, so M(g) >= 2; and s = g
    makes W the least weight of g, so M(g) = (g - W)/g_1 = 1 iff W = g - g_1.
    Raises TypeError (for 3.0 too, before deduplication could drop it), EmptyInput,
    ZeroGenerator or NonCoprime, then GeneratorTooLarge.
    """
    gens = NumericalMonoid(tuple(sorted(set(map(operator.index, raw))))).generators
    if gens[-1] > MAX_GENERATOR:
        raise GeneratorTooLarge(
            f"largest generator {gens[-1]} exceeds the cap {MAX_GENERATOR}"
        )
    g1 = gens[0]
    first = _breakpoints(g1, gens[1:], gens[-1], -1)
    return NumericalMonoid((g1, *(g for g in gens[1:] if first[g % g1][0] == (g, g - g1))))


def _breakpoints(mod: int, parts, limit: int, sign: int) -> list[list[tuple[int, int]]]:
    """Breakpoints of the longest (``sign`` -1) or shortest (+1)
    factorization lengths over ``mod`` and the other generators ``parts``
    (ascending), for n = 0..limit: per class mod ``mod``, the pairs (s, u)
    in increasing s, where the length of n is (n + sign u)/mod from the
    breakpoint s up to the class's next one.  A class's first breakpoint is
    its least combination; below it n is none.

    Write n = c mod + s with s a sum of q parts.  That factorization has
    length q + c = (n - s + q mod)/mod, so within a class mod ``mod`` the
    extreme length of n comes from the least u = sign (q mod - s) over the
    sums s <= n of the class: u is the weight W = sum (g - g_1) c_g of M
    (mod g_1, every part above it) or the weight V = sum (g_k - g) c_g of m
    (mod g_k, every part below it).  So the class's lengths are ramps,
    rising by one per step of ``mod``, that restart where u falls.  Those
    breakpoints are found by label setting: sums pop from a heap in
    increasing s, the least u first, and a sum that does not lower the u of
    its class starts no ramp and is not extended, since every extension of
    it is beaten by the same extension of the sum that beat it.

    Sums are extended in canonical order: a kept sum whose last part is
    ``parts[j]`` is extended only by the ``parts[i]`` with i >= j, and of
    entries with equal s and u the smallest j pops first.  No breakpoint is
    lost.  Let s be a breakpoint and j the least index such that s has an
    optimal representation whose largest part is ``parts[j]``.  Then s -
    parts[j] is a breakpoint too, and the rest of that representation is
    optimal for it: if an earlier sum of its class had a u as low, adding
    ``parts[j]`` to that sum would give an earlier sum with a u as low as
    that of s in the class of s.  By induction on s, the kept entry of s -
    parts[j] carries an index at most j, so it pushes s with index j; and
    an entry of s with the least u carries the largest part of an optimal
    representation of s, so no such entry has an index below j.  The kept
    entry of s therefore carries the least such j, as the induction needs.
    A push whose u is not below the least u of its class so far is skipped:
    that least only falls, so the entry's pop would be discarded, while the
    kept entry of a breakpoint has a u below it at its pop and so at its push.
    """
    breaks: list[list[tuple[int, int]]] = [[] for _ in range(mod)]
    # each class's least u so far; every u is below (limit + 1) mod
    least = [(limit + 1) * mod] * mod
    # the extensions of a sum whose last part has index j: (i, parts[i],
    # change of u) for i >= j
    steps = [(i, g, sign * (mod - g)) for i, g in enumerate(parts)]
    later = [steps[j:] for j in range(len(parts) + 1)]
    heap = [(0, 0, 0)]  # (s, u, index of the last part)
    while heap:
        s, u, j = heappop(heap)
        r = s % mod
        if u >= least[r]:
            continue
        least[r] = u
        breaks[r].append((s, u))
        for i, g, step in later[j]:
            t = s + g
            if t > limit:
                break
            v = u + step
            if v < least[t % mod]:
                heappush(heap, (t, v, i))
    return breaks


def _ramp(lo: int, hi: int):
    """lo..hi in the smallest of array('i'), array('q') and list that holds
    them, so a column of lengths takes 4 bytes an entry below 2**31 and
    stays exact past 2**63."""
    values = range(lo, hi + 1)
    if hi < 2**31:
        return array("i", values)
    if hi < 2**63:
        return array("q", values)
    return list(values)


def _column(breaks, mod: int, sign: int, top: int, a: int, b: int):
    """The lengths (n + sign u)/mod for n = a..b-1 from the breakpoints of
    one modulus, as _breakpoints returns them, -1 where n is no combination.
    Each class takes one slice copy of a ramp per breakpoint in [a, b), and
    one for the breakpoint in effect at a.  Every u lies in [0, ``top``],
    so the lengths lie in [(a - top)/mod, (b - 1)/mod] for M (sign -1) and
    in [a/mod, (b - 1 + top)/mod] for m: the ramp covers only those."""
    if sign < 0:
        least, most = max((a - top) // mod, 0), (b - 1) // mod
    else:
        least, most = a // mod, (b - 1 + top) // mod
    ramp = _ramp(least, most)
    column = ramp[:1]  # -1 in the ramp's type
    column[0] = -1
    column *= b - a
    for ramps in breaks:
        end = b  # each ramp runs up to the next breakpoint of its class
        for s, u in reversed(ramps):
            if s >= end:
                continue
            # the first n at or past a in the class of s
            p = s if s >= a else a + (s - a) % mod
            if p < end:
                q = (p + sign * u) // mod - least
                column[p - a : end - a : mod] = ramp[q : q + (end - 1 - p) // mod + 1]
            if s <= a:
                break
            end = s
    return column


class WindowTables:
    """M(n), m(n) and the Frobenius number of one monoid, from breakpoints.

    Past the window limit = (g_k - 1) g_{k-1} the recurrences M(n) =
    M(n - g_1) + 1 (for n > (g_1 - 1) g_k) and m(n) = m(n - g_k) + 1 (for
    n > limit) hold; one window serves both, since g_{k-1} >= g_1 gives
    (g_k - 1) g_{k-1} >= (g_k - 1) g_1 >= (g_1 - 1) g_k.  So within each
    class mod g_1, M is a ramp, rising by one per step of g_1, that
    restarts at finitely many breakpoints up to limit, and likewise m mod
    g_k.  The constructor runs both _breakpoints passes itself
    (``max_breaks`` mod g_1 and ``min_breaks`` mod g_k), at most limit + 1
    breakpoints each, so the table budget bounds their number.  It checks
    that every class of either modulus has one, and takes the Frobenius
    number as the largest first breakpoint mod g_1 (the Apery set) minus
    g_1, which must lie more than g_k below the window's end.  A length query
    reads its class's last breakpoint when n is at or past it, else
    bisects that class's breakpoints.  A row scan reads :meth:`columns`,
    written from the same breakpoints one chunk at a time and not kept, and
    a profile build :meth:`last_breakpoint`.  The object is shared through
    :func:`window_tables` and must not be written to.
    """

    __slots__ = ("g1", "gk", "limit", "frobenius", "max_breaks", "min_breaks")

    def __init__(self, generators: tuple[int, ...]):
        g1, gk = generators[0], generators[-1]
        # <1> has an empty window: M(n) = m(n) = n by n steps back to 0
        limit = (gk - 1) * generators[-2] if len(generators) > 1 else 0
        if 2 * (limit + 1) > TABLE_LIMIT:
            raise TableTooLarge(
                f"the length tables of <{','.join(map(str, generators))}> need "
                f"{2 * (limit + 1)} entries, above the limit {TABLE_LIMIT}"
            )
        self.g1, self.gk, self.limit = g1, gk, limit
        self.max_breaks = _breakpoints(g1, generators[1:], limit, -1)
        self.min_breaks = _breakpoints(gk, generators[:-1], limit, 1)
        # Schur's bound F <= (g_1 - 1)(g_k - 1) - 1 on the Frobenius number
        # gives F + g_k <= g_1 (g_k - 1) <= limit: the last g_k entries of the
        # window are g_k >= g_1 members in a row, so every class mod g_1 and
        # mod g_k has a breakpoint up to limit and every query is answered
        # from one.  Only a wrong fill fails these checks.
        if not (all(self.max_breaks) and all(self.min_breaks)):
            raise InternalInconsistency(f"membership gap inside the window of {generators}")
        self.frobenius = max(ramps[0][0] for ramps in self.max_breaks) - g1
        if self.frobenius + gk > limit:
            raise InternalInconsistency(f"membership gap inside the window of {generators}")

    # max_length and min_length repeat one bisection, mirrored, inline: a
    # warm lookup takes a fraction of a microsecond, and a call adds a third

    def max_length(self, n: int) -> int:
        """M(n) = (n - W)/g_1, or -1 when ``n`` is outside the monoid."""
        g1 = self.g1
        ramps = self.max_breaks[n % g1]
        s, w = ramps[-1]
        if n < s:
            i = bisect_left(ramps, (n + 1,))
            if not i:
                return -1
            s, w = ramps[i - 1]
        return (n - w) // g1

    def min_length(self, n: int) -> int:
        """m(n) = (n + V)/g_k, or -1 when ``n`` is outside the monoid."""
        gk = self.gk
        ramps = self.min_breaks[n % gk]
        s, v = ramps[-1]
        if n < s:
            i = bisect_left(ramps, (n + 1,))
            if not i:
                return -1
            s, v = ramps[i - 1]
        return (n + v) // gk

    def last_breakpoint(self) -> int:
        """N0, the largest last breakpoint over the classes of both moduli:
        from N0 on, M(n + g_1) = M(n) + 1 and m(n + g_k) = m(n) + 1.  Each
        call scans the lists, so a build that needs no N0 pays nothing."""
        return max(ramps[-1][0] for ramps in chain(self.max_breaks, self.min_breaks))

    def columns(self, lo: int, hi: int) -> Iterator[tuple[int, Sequence[int], Sequence[int]]]:
        """(start, M column, m column) for n in [max(lo, 0), hi], in
        consecutive chunks: entry i of each column is the length of
        start + i, -1 outside the monoid.  A chunk holds a multiple of g_k
        and at least WRITE_CHUNK entries (the last one fewer), and its
        columns are written by _column when it is reached, so memory
        follows the chunk, not the range."""
        g1, gk = self.g1, self.gk
        # 64 entries per class mod g_k (and so mod g_1) spread each class's
        # slice copies over many rows; no more than the window's entries keep
        # a chunk's columns within the memory of two arrays over the window
        # (<3, 10**6 + 1> has 64 g_k = 6.4e7 entries, but a window of 3e6)
        size = max(WRITE_CHUNK, min(64 * gk, self.limit + 1))
        size = -(-size // gk) * gk
        # u only falls within a class, so its first breakpoint has the largest
        wtop = max(ramps[0][1] for ramps in self.max_breaks)
        vtop = max(ramps[0][1] for ramps in self.min_breaks)
        for a in range(max(lo, 0), hi + 1, size):
            b = min(a + size, hi + 1)
            big = _column(self.max_breaks, g1, -1, wtop, a, b)
            yield a, big, _column(self.min_breaks, gk, 1, vtop, a, b)

    def rows(self, lo: int, hi: int) -> Iterator[tuple[int, int, int]]:
        """(n, M(n), m(n)) for every monoid element in [lo, hi], ascending,
        read from :meth:`columns`."""
        gap = self.frobenius
        for start, big, small in self.columns(lo, hi):
            rows = zip(range(start, start + len(big)), big, small)
            if start > gap:
                yield from rows
            else:
                for row in rows:
                    if row[2] >= 0:
                        yield row


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def window_tables(generators: tuple[int, ...]) -> WindowTables:
    """The tables of the monoid with these minimal generators, built once
    and kept while the monoid is among the TABLE_CACHE_SIZE last used."""
    return WindowTables(generators)


def contains(S: NumericalMonoid, n) -> bool:
    """True iff ``n`` is an int and a nonnegative combination of the generators."""
    if not isinstance(n, int) or n < 0:
        return False
    t = window_tables(S.generators)
    return n > t.frobenius or n >= t.max_breaks[n % t.g1][0][0]


def frobenius(S: NumericalMonoid) -> int:
    """Largest integer not in ``S``; -1 for <1> by convention."""
    return window_tables(S.generators).frobenius


def max_elasticity(S: NumericalMonoid) -> Fraction:
    """Supremum of the elasticity set, g_k/g_1 (attained by some element)."""
    return Fraction(S.gk, S.g1)


def detect_arithmetical(S: NumericalMonoid) -> ArithmeticalParams | None:
    """Return (a, d, k) iff the generators are a, a+d, ..., a+kd.

    Single-generator monoids are never arithmetical here (k >= 1 required).
    """
    gens = S.generators
    if len(gens) < 2:
        return None
    d = gens[1] - gens[0]
    if any(b - a != d for a, b in zip(gens, gens[1:])):
        return None
    a, k = gens[0], len(gens) - 1
    # gcd(a, d) is the generators' gcd, 1; k >= a only in a non-minimal set
    if k >= a:
        return None
    return ArithmeticalParams(a, d, k)

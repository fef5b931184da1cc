"""Numerical monoids: validated generating sets and their length functions.

A numerical monoid is a co-finite additive submonoid of the nonnegative
integers, stored here by its minimal generating set g_1 < ... < g_k with
gcd 1.  Within each residue class mod g_1 the maximal factorization length
M(n) rises by one per step of g_1 and restarts at finitely many
breakpoints, and so does the minimal length m(n) mod g_k.  One
:class:`WindowTables` object per monoid holds those breakpoints, found by
one label-setting pass per modulus, and the Frobenius number (the largest
integer outside the monoid): the first breakpoints mod g_1 are the Apery
set.  Membership, the Frobenius number and every length query read that
object, which is built once per generating set and kept in one bounded
cache; the arrays of M and m over one window are written from it only for
the row scans.  The constructor validates a generating set; new_monoid
caps and normalizes it."""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from math import gcd

from .errors import (
    EmptyInput,
    GeneratorTooLarge,
    InternalInconsistency,
    NonCoprime,
    TableTooLarge,
    ZeroGenerator,
)

#: Cap on the largest generator new_monoid accepts.
MAX_GENERATOR = 10**6

#: Most table entries one monoid may take, 2 ((g_k - 1) g_{k-1} + 1) for its
#: two tables over one window (4 bytes each), which also bounds its
#: breakpoints; larger monoids raise TableTooLarge before any work.
TABLE_LIMIT = 10**7

#: Monoids whose tables stay cached: a comparison reads two at a time, every
#: other caller one.
TABLE_CACHE_SIZE = 4


@dataclass(frozen=True)
class NumericalMonoid:
    """Additive submonoid of N with minimal generators ``g_1 < ... < g_k``.

    Instances are assumed minimal.  Use :func:`new_monoid` to normalize raw
    input (sorting, deduplication, removal of redundant generators).
    """

    generators: tuple[int, ...]

    def __post_init__(self):
        gens = tuple(map(operator.index, self.generators))  # TypeError for 2.7 or "3"
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


@dataclass(frozen=True)
class ArithmeticalParams:
    """Parameters (a, d, k) of the monoid generated by a, a+d, ..., a+kd.

    Requires gcd(a, d) = 1 and 1 <= k < a, the standing assumptions under
    which the progression is a minimal generating set.
    """

    a: int
    d: int
    k: int

    def __post_init__(self):
        if min(self.a, self.d, self.k) < 1:
            raise ValueError("a, d and k must be positive")
        if gcd(self.a, self.d) != 1:
            raise ValueError(f"gcd(a={self.a}, d={self.d}) must be 1")
        if not self.k < self.a:
            raise ValueError(f"need k < a, got k={self.k}, a={self.a}")

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
    ones, so the result carries the minimal generating set: g is kept iff its
    only factorization over the raw set is g itself, that is iff M(g) = 1.
    Raises TypeError (for 3.0 too, before deduplication could drop it), EmptyInput,
    ZeroGenerator or NonCoprime, then GeneratorTooLarge.
    """
    gens = NumericalMonoid(tuple(sorted(set(map(operator.index, raw))))).generators
    if gens[-1] > MAX_GENERATOR:
        raise GeneratorTooLarge(
            f"largest generator {gens[-1]} exceeds the cap {MAX_GENERATOR}"
        )
    g1, gk = gens[0], gens[-1]
    # only M(g) = 1 matters, so only the breakpoints of M up to g_k are found
    breaks = _breakpoints(g1, gens[1:], gk, -1)
    return NumericalMonoid(tuple(g for g in gens if _longest(breaks, g1, g) == 1))


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
            if s + g > limit:
                break
            heappush(heap, (s + g, u + step, i))
    return breaks


def _longest(breaks, g1: int, n: int) -> int:
    """M(n) from the breakpoints of M mod ``g1``, -1 below the first of its
    class (n < 0 too): at or past the last from it, else by bisection."""
    ramps = breaks[n % g1]
    s, w = ramps[-1]
    if n < s:
        # (s, w) < (n + 1,) iff s <= n
        i = bisect_left(ramps, (n + 1,))
        if not i:
            return -1
        s, w = ramps[i - 1]
    return (n - w) // g1


def _table(breaks, mod: int, sign: int, limit: int, ramp: array) -> array:
    """The lengths for n = 0..limit, -1 where n is no combination, written
    by one slice copy of ``ramp`` (``ramp[i]`` is i) per breakpoint."""
    table = array("i", [-1]) * (limit + 1)
    for ramps in breaks:
        end = limit + 1  # each ramp runs up to the next breakpoint of its class
        for s, u in reversed(ramps):
            q = (s + sign * u) // mod
            table[s:end:mod] = ramp[q : q + (end - s - 1) // mod + 1]
            end = s
    return table


def _fill(gens, limit: int) -> tuple[list, list, int]:
    """The breakpoints of M (mod g_1) and of m (mod g_k) over the sorted
    ``gens`` for n = 0..limit, and the largest n up to limit that is no
    combination of them (-1 if none)."""
    g1 = gens[0]
    longest = _breakpoints(g1, gens[1:], limit, -1)
    shortest = _breakpoints(gens[-1], gens[:-1], limit, 1)
    # a class mod g_1 has its last gap one step below its first element, or
    # at its last entry up to limit when it has none (which only a wrong
    # fill shows over a window, and the window check then catches)
    last = max(
        ramps[0][0] if ramps else limit + 1 + (r - limit - 1) % g1
        for r, ramps in enumerate(longest)
    )
    return longest, shortest, last - g1


class WindowTables:
    """M(n), m(n) and the Frobenius number of one monoid, from breakpoints.

    Past the window limit = (g_k - 1) g_{k-1} the recurrences M(n) =
    M(n - g_1) + 1 (for n > (g_1 - 1) g_k) and m(n) = m(n - g_k) + 1 (for
    n > limit) hold; one window serves both, since g_{k-1} >= g_1 gives
    (g_k - 1) g_{k-1} >= (g_k - 1) g_1 >= (g_1 - 1) g_k.  So within each
    class mod g_1, M is a ramp, rising by one per step of g_1, that
    restarts at finitely many breakpoints up to limit, and likewise m mod
    g_k.  The constructor finds both sets (``max_breaks`` mod g_1 and
    ``min_breaks`` mod g_k, as _breakpoints returns them), at most limit + 1
    breakpoints each, so the table budget bounds their number; the first
    breakpoint of each class mod g_1 is its Apery element.  A length query
    reads its class's last breakpoint when n is at or past it, else
    bisects that class's breakpoints.  The arrays over the window that the
    row scans read are written from the same breakpoints on the first call
    of :meth:`tables`.  The object is shared through :func:`window_tables`
    and must not be written to.
    """

    __slots__ = ("generators", "g1", "gk", "limit", "frobenius", "max_breaks", "min_breaks", "_tables")

    def __init__(self, generators: tuple[int, ...]):
        g1, gk = generators[0], generators[-1]
        # <1> has an empty window: M(n) = m(n) = n by n steps back to 0
        limit = (gk - 1) * generators[-2] if len(generators) > 1 else 0
        if 2 * (limit + 1) > TABLE_LIMIT:
            raise TableTooLarge(
                f"the length tables of <{','.join(map(str, generators))}> need "
                f"{2 * (limit + 1)} entries, above the limit {TABLE_LIMIT}"
            )
        self.generators, self.g1, self.gk, self.limit = generators, g1, gk, limit
        self.max_breaks, self.min_breaks, self.frobenius = _fill(generators, limit)
        self._tables = None
        # When the Frobenius number F lies below the last g_k entries of the
        # window, those are g_k >= g_1 members in a row, so every class mod
        # g_1 and mod g_k has a breakpoint up to limit and every query is
        # answered from one.  Schur's bound F <= (g_1 - 1)(g_k - 1) - 1
        # gives F + g_k <= g_1 (g_k - 1) <= limit, so only a wrong fill
        # fails this check.
        if self.frobenius + gk > limit:
            raise InternalInconsistency(f"membership gap inside the window of {generators}")

    # max_length repeats _longest, and min_length its mirror, inline: a
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

    def tables(self) -> tuple[array, array]:
        """(max_table, min_table): M(n) and m(n) for 0 <= n <= limit, -1
        outside the monoid, written from the breakpoints on the first call
        and kept."""
        if self._tables is None:
            # 32-bit entries; no length exceeds limit // g_1
            ramp = array("i", range(self.limit // self.g1 + 2))
            self._tables = (
                _table(self.max_breaks, self.g1, -1, self.limit, ramp),
                _table(self.min_breaks, self.gk, 1, self.limit, ramp),
            )
        return self._tables

    def rows(self, lo: int, hi: int) -> Iterator[tuple[int, int, int]]:
        """(n, M(n), m(n)) for every monoid element in [lo, hi], ascending:
        inside the window by index into :meth:`tables`, past it by the
        recurrences, stepping back into the window."""
        g1, gk, limit = self.g1, self.gk, self.limit
        maxt, mint = self.tables()
        for n in range(max(lo, 0), min(hi, limit) + 1):
            small = mint[n]
            if small >= 0:
                yield n, maxt[n], small
        # past the window, which clears the Frobenius number: n steps back to
        # i = n - up g_1 and j = n - down g_k among the window's last entries,
        # and each count of steps grows by one where its index wraps
        n = max(lo, limit + 1)
        up = (n - limit + g1 - 1) // g1
        down = (n - limit + gk - 1) // gk
        i, j = n - up * g1, n - down * gk
        for n in range(n, hi + 1):
            yield n, maxt[i] + up, mint[j] + down
            i += 1
            if i > limit:
                i, up = i - g1, up + 1
            j += 1
            if j > limit:
                j, down = j - gk, down + 1


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

"""Numerical monoids: validated generating sets and their windowed length tables.

A numerical monoid is a co-finite additive submonoid of the nonnegative
integers, stored here by its minimal generating set g_1 < ... < g_k with
gcd 1.  One :class:`WindowTables` object per monoid holds the maximal and
minimal factorization lengths M(n) and m(n) over one window, up to where
both of their recurrences have taken over, and the Frobenius number (the
largest integer outside the monoid), all filled in one pass.  Membership,
the Frobenius number and every length query read that object, which is
built once per generating set and kept in one bounded cache.
Normalization runs the same fill over the raw generators.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import (
    EmptyInput,
    GeneratorTooLarge,
    InternalInconsistency,
    NonCoprime,
    TableTooLarge,
    ZeroGenerator,
)

#: Default cap on the largest generator new_monoid accepts.
MAX_GENERATOR = 10**6

#: Most table entries one monoid may take, 2 ((g_k - 1) g_{k-1} + 1) for its
#: two tables over one window (4 bytes each); larger monoids raise
#: TableTooLarge before allocating.
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
        gens = tuple(int(g) for g in self.generators)
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
        return isinstance(n, int) and contains(self, n)

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


def new_monoid(raw, *, max_generator: int = MAX_GENERATOR) -> NumericalMonoid:
    """Build the monoid generated by ``raw``.

    Sorts, deduplicates, and drops generators representable over the smaller
    ones, so the result carries the minimal generating set: g is kept iff its
    only factorization over the raw set is g itself, that is iff M(g) = 1.
    """
    entries = [int(g) for g in raw]
    if not entries:
        raise EmptyInput("no generators given")
    if any(g < 1 for g in entries):
        raise ZeroGenerator(f"generators must be >= 1, got {sorted(entries)}")
    gens = sorted(set(entries))
    if gens[-1] > max_generator:
        raise GeneratorTooLarge(
            f"largest generator {gens[-1]} exceeds the cap {max_generator}"
        )
    if gcd(*gens) != 1:
        raise NonCoprime(f"gcd of {tuple(gens)} is {gcd(*gens)}, expected 1")
    max_table, _, _ = _fill(gens, gens[-1])
    return NumericalMonoid(tuple(g for g in gens if max_table[g] == 1))


def _fill(gens, limit: int) -> tuple[array, array, int]:
    """M(n) and m(n) over the sorted ``gens`` for n = 0..limit, both -1 where
    n is no combination of them, and the largest such n (-1 if none)."""
    # 32-bit entries; array('i') raises OverflowError if a length ever overflows
    max_table = array("i", [-1]) * (limit + 1)
    min_table = array("i", [-1]) * (limit + 1)
    max_table[0] = min_table[0] = 0
    gap = -1
    for n in range(1, limit + 1):
        big, small = -1, n  # n exceeds every m(n - g), so it means "none yet"
        for g in gens:
            if g > n:
                break
            prev = max_table[n - g]
            if prev >= 0:
                if prev > big:
                    big = prev
                prev = min_table[n - g]
                if prev < small:
                    small = prev
        if big >= 0:
            max_table[n] = big + 1
            min_table[n] = small + 1
        else:
            gap = n
    return max_table, min_table, gap


class WindowTables:
    """M(n), m(n) and the Frobenius number of one monoid, over one window.

    ``max_table[n]`` is M(n) and ``min_table[n]`` is m(n) for
    0 <= n <= limit = (g_k - 1) g_{k-1}, both -1 outside the monoid.  Past
    the window the recurrences M(n) = M(n - g_1) + 1 (for n > (g_1 - 1) g_k)
    and m(n) = m(n - g_k) + 1 (for n > limit) answer by stepping back into
    it.  One window serves both: g_{k-1} >= g_1 gives (g_k - 1) g_{k-1} >=
    (g_k - 1) g_1 >= (g_1 - 1) g_k.  The tables are shared through
    :func:`window_tables` and must not be written to.
    """

    __slots__ = ("generators", "g1", "gk", "limit", "max_table", "min_table", "frobenius")

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
        self.max_table, self.min_table, self.frobenius = _fill(generators, limit)
        # A step back lands among the last g_k entries of the window.  When
        # they hold no gap, they are g_k >= g_1 members in a row, which end
        # every gap: the last gap seen is the Frobenius number F and every
        # step back lands on a member.  Schur's bound F <= (g_1 - 1)(g_k - 1)
        # - 1 gives F + g_k <= g_1 (g_k - 1) <= limit, so only a wrong fill
        # fails this check.
        if self.frobenius + gk > limit:
            raise InternalInconsistency(f"membership gap inside the window of {generators}")

    def max_length(self, n: int) -> int:
        """M(n), or -1 when ``n`` is outside the monoid."""
        if n <= self.limit:
            return self.max_table[n] if n >= 0 else -1
        steps = (n - self.limit + self.g1 - 1) // self.g1
        return self.max_table[n - steps * self.g1] + steps

    def min_length(self, n: int) -> int:
        """m(n), or -1 when ``n`` is outside the monoid."""
        if n <= self.limit:
            return self.min_table[n] if n >= 0 else -1
        steps = (n - self.limit + self.gk - 1) // self.gk
        return self.min_table[n - steps * self.gk] + steps


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def window_tables(generators: tuple[int, ...]) -> WindowTables:
    """The tables of the monoid with these minimal generators, built once
    and kept while the monoid is among the TABLE_CACHE_SIZE last used."""
    return WindowTables(generators)


def contains(S: NumericalMonoid, n: int) -> bool:
    """True iff ``n`` is a nonnegative integer combination of the generators."""
    if n < 0:
        return False
    t = window_tables(S.generators)
    return n > t.frobenius or t.min_table[n] >= 0


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
    if gcd(a, d) != 1 or not 1 <= k < a:
        return None
    return ArithmeticalParams(a, d, k)

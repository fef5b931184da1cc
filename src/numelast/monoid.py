"""Numerical monoids: validated generating sets and their windowed length tables.

A numerical monoid is a co-finite additive submonoid of the nonnegative
integers, stored here by its minimal generating set g_1 < ... < g_k with
gcd 1.  One :class:`WindowTables` object per monoid holds the maximal and
minimal factorization lengths M(n) and m(n) up to the windows where their
recurrences take over, and the Frobenius number (the largest integer
outside the monoid) found while filling the min table.  Membership, the
Frobenius number and every length query read that object, which is built
once per generating set and kept in one bounded cache.  Normalization runs
the same max-length fill over the raw generators.
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

#: Most entries, (g_1 - 1) g_k + (g_k - 1) g_{k-1}, one monoid's tables may
#: take (4 bytes each); larger monoids raise TableTooLarge before allocating.
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
    lengths = _max_lengths(gens, gens[-1])
    return NumericalMonoid(tuple(g for g in gens if lengths[g] == 1))


def _max_lengths(gens, limit: int) -> array:
    """M(n) over the sorted ``gens`` for n = 0..limit; -1 where n is no
    combination of them."""
    # 32-bit entries; array('i') raises OverflowError if a length ever overflows
    table = array("i", [-1]) * (limit + 1)
    table[0] = 0
    for n in range(1, limit + 1):
        best = -1
        for g in gens:
            if g > n:
                break
            prev = table[n - g]
            if prev > best:
                best = prev
        if best >= 0:
            table[n] = best + 1
    return table


class WindowTables:
    """M(n), m(n) and the Frobenius number of one monoid, over fixed windows.

    ``max_table[n]`` is M(n) for 0 <= n <= max_limit = (g_1 - 1) g_k, and
    ``min_table[n]`` is m(n) for 0 <= n <= min_limit = (g_k - 1) g_{k-1};
    both hold -1 outside the monoid.  Past its window each function follows
    M(n) = M(n - g_1) + 1 and m(n) = m(n - g_k) + 1, so it is answered by
    stepping back into the window.  Both windows reach g_1 past the
    Frobenius number, so a step back always lands on a member.  The tables
    are shared through :func:`window_tables` and must not be written to.
    """

    __slots__ = (
        "generators", "g1", "gk", "max_limit", "min_limit", "max_table", "min_table", "frobenius",
    )

    def __init__(self, generators: tuple[int, ...]):
        g1, gk = generators[0], generators[-1]
        # <1> has empty windows: M(n) = m(n) = n by n steps back to 0
        max_limit = (g1 - 1) * gk
        min_limit = (gk - 1) * generators[-2] if len(generators) > 1 else 0
        if max_limit + min_limit > TABLE_LIMIT:
            raise TableTooLarge(
                f"the length tables of <{','.join(map(str, generators))}> need "
                f"{max_limit + min_limit} entries, above the limit {TABLE_LIMIT}"
            )
        min_table = array("i", [-1]) * (min_limit + 1)
        min_table[0] = 0
        frobenius = -1
        for n in range(1, min_limit + 1):
            best = -1
            for g in generators:
                if g > n:
                    break
                prev = min_table[n - g]
                if prev >= 0 and (best < 0 or prev < best):
                    best = prev
            if best >= 0:
                min_table[n] = best + 1
            else:
                frobenius = n
        # g_1 members in a row end every gap, so windows that reach g_1 past
        # the last gap seen have seen the Frobenius number
        if frobenius + g1 > min(max_limit, min_limit):
            raise InternalInconsistency(f"membership gap inside a window of {generators}")
        self.generators, self.g1, self.gk = generators, g1, gk
        self.max_limit, self.min_limit = max_limit, min_limit
        self.max_table = _max_lengths(generators, max_limit)
        self.min_table = min_table
        self.frobenius = frobenius

    def max_length(self, n: int) -> int:
        """M(n), or -1 when ``n`` is outside the monoid."""
        if n <= self.max_limit:
            return self.max_table[n] if n >= 0 else -1
        steps = (n - self.max_limit + self.g1 - 1) // self.g1
        return self.max_table[n - steps * self.g1] + steps

    def min_length(self, n: int) -> int:
        """m(n), or -1 when ``n`` is outside the monoid."""
        if n <= self.min_limit:
            return self.min_table[n] if n >= 0 else -1
        steps = (n - self.min_limit + self.gk - 1) // self.gk
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

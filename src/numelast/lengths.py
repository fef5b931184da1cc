"""Factorization enumeration and length statistics over a numerical monoid.

Maximal and minimal factorization lengths M(n) and m(n) are read from the
monoid's :class:`~numelast.monoid.WindowTables`: dynamic-programming tables
built once per monoid over one window, up to (g_k - 1) g_{k-1}, past which
both recurrences M(n) = M(n - g_1) + 1 and m(n) = m(n - g_k) + 1 hold.
Elements beyond the window are answered in O(1) by stepping back into it;
the tables never grow.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import EnumerationLimitExceeded, NoSubcollection, NotInMonoid
from .monoid import NumericalMonoid, window_tables

#: factorizations() refuses elements with n * g_1 above this product.
ENUMERATION_LIMIT = 10**7


@dataclass(frozen=True)
class Factorization:
    """Exponent vector over the generators of the ambient monoid."""

    exponents: tuple[int, ...]

    @property
    def length(self) -> int:
        return sum(self.exponents)


@dataclass(frozen=True)
class LengthStats:
    """Per-element length data: n, M(n), m(n) and the elasticity M(n)/m(n)."""

    n: int
    max_len: int
    min_len: int
    elasticity: Fraction


def factorizations(
    S: NumericalMonoid, n: int, *, limit: int = ENUMERATION_LIMIT
) -> list[Factorization]:
    """All exponent vectors expressing ``n`` over the generators.

    Empty iff n is not in the monoid; n = 0 gives the zero vector.  Ordered
    lexicographically descending in the exponent of the largest generator
    (then recursively), so output is deterministic.
    """
    if n < 0:
        return []
    if n * S.g1 > limit:
        raise EnumerationLimitExceeded(
            f"n={n} exceeds the enumeration guard ({limit}/g_1); "
            "pass a larger limit= to override"
        )
    gens = S.generators
    out: list[Factorization] = []
    expo = [0] * len(gens)

    def descend(i: int, rem: int) -> None:
        if i == 0:
            if rem % gens[0] == 0:
                expo[0] = rem // gens[0]
                out.append(Factorization(tuple(expo)))
            return
        g = gens[i]
        for e in range(rem // g, -1, -1):
            expo[i] = e
            descend(i - 1, rem - e * g)
        expo[i] = 0

    descend(len(gens) - 1, n)
    return out


def length_set(S: NumericalMonoid, n: int) -> set[int]:
    """The set of factorization lengths of ``n``; raises if n is outside S."""
    facs = factorizations(S, n)
    if not facs:
        raise NotInMonoid(f"{n} is not in {S}")
    return {f.length for f in facs}


def max_length(S: NumericalMonoid, n: int) -> int:
    """M(n): the largest factorization length of ``n``."""
    value = window_tables(S.generators).max_length(n)
    if value < 0:
        raise NotInMonoid(f"{n} is not in {S}")
    return value


def min_length(S: NumericalMonoid, n: int) -> int:
    """m(n): the smallest factorization length of ``n``."""
    value = window_tables(S.generators).min_length(n)
    if value < 0:
        raise NotInMonoid(f"{n} is not in {S}")
    return value


def elasticity(S: NumericalMonoid, n: int) -> Fraction:
    """M(n)/m(n) as a reduced fraction; elasticity(S, 0) = 1 by convention."""
    t = window_tables(S.generators)
    big = t.max_length(n)
    if big < 0:
        raise NotInMonoid(f"{n} is not in {S}")
    if n == 0:
        return Fraction(1)
    return Fraction(big, t.min_length(n))


def iter_lengths(S: NumericalMonoid, lo: int, hi: int) -> Iterator[tuple[int, int, int]]:
    """(n, M(n), m(n)) as ints for every monoid element in [lo, hi], ascending.

    Reads the tables directly: inside the window by index, past it by the
    same O(1) steps back into the window that max_length and min_length take.
    """
    t = window_tables(S.generators)
    g1, gk, limit = t.g1, t.gk, t.limit
    maxt, mint = t.max_table, t.min_table
    for n in range(max(lo, 0), min(hi, limit) + 1):
        small = mint[n]
        if small >= 0:
            yield n, maxt[n], small
    # past the window, which clears the Frobenius number
    for n in range(max(lo, limit + 1), hi + 1):
        up = (n - limit + g1 - 1) // g1
        down = (n - limit + gk - 1) // gk
        yield n, maxt[n - up * g1] + up, mint[n - down * gk] + down


def length_stats_range(S: NumericalMonoid, lo: int, hi: int) -> list[LengthStats]:
    """LengthStats for every monoid element in [lo, hi], ascending."""
    return [
        LengthStats(n, big, small, Fraction(big, small) if n else Fraction(1))
        for n, big, small in iter_lengths(S, lo, hi)
    ]


def find_proper_subcollection(k: int, c: list[int]) -> set[int]:
    """A proper subset T of 1..r with sum(c[T]) = sum(c) mod k.

    Found by the prefix-sum pigeonhole: two prefix sums agree mod k, and the
    gap between them is removed.  For k = 0 the congruence means equality,
    so a repeated prefix sum is required and may not exist.
    """
    if k < 0:
        raise ValueError("modulus must be nonnegative")
    r = len(c)
    seen = {0: 0}
    total = 0
    for j in range(1, r + 1):
        total += c[j - 1]
        key = total % k if k else total
        i = seen.get(key)
        if i is not None:
            return set(range(1, i + 1)) | set(range(j + 1, r + 1))
        seen[key] = j
    raise NoSubcollection(f"no two of the {r + 1} prefix sums agree (k={k})")

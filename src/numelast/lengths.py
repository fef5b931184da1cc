"""Factorization enumeration and length statistics over a numerical monoid.

Maximal and minimal factorization lengths M(n) and m(n) are read from the
monoid's :class:`~numelast.monoid.WindowTables`: the points where each
residue class's lengths restart their rise, found once per monoid.  A
query reads one class's breakpoints, by a bisection or, at or past its
last one, directly; there are none past the window (g_k - 1) g_{k-1},
beyond which both recurrences M(n) = M(n - g_1) + 1 and
m(n) = m(n - g_k) + 1 hold.  The row scan iter_lengths reads the tables'
columns of M and m over its range, written from the same breakpoints one
chunk at a time, by one slice copy per breakpoint and class, and not kept.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from fractions import Fraction
from math import comb

from .errors import EnumerationLimitExceeded, NoSubcollection, NotInMonoid
from .monoid import NumericalMonoid, window_tables
from .records import FrozenRecord

#: factorizations() refuses, before any work, an n with n * g_1 above this,
#: or with more candidate exponent vectors (e_2, ..., e_k), at most
#: C(floor(n/g_2) + k - 1, k - 1), than this.
ENUMERATION_LIMIT = 10**7


class Factorization(FrozenRecord):
    """Exponent vector over the generators of the ambient monoid."""

    __slots__ = ("exponents",)
    exponents: tuple[int, ...]

    def __init__(self, exponents):
        object.__setattr__(self, "exponents", exponents)

    @property
    def length(self) -> int:
        return sum(self.exponents)


class LengthStats(FrozenRecord):
    """Per-element length data: n, M(n), m(n) and the elasticity M(n)/m(n)."""

    __slots__ = ("n", "max_len", "min_len", "elasticity")
    n: int
    max_len: int
    min_len: int
    elasticity: Fraction

    def __init__(self, n, max_len, min_len, elasticity):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "max_len", max_len)
        object.__setattr__(self, "min_len", min_len)
        object.__setattr__(self, "elasticity", elasticity)


def _visit_factorizations(
    S: NumericalMonoid, n: int, visit: Callable[[list[int]], object]
) -> None:
    """Calls ``visit`` with each exponent vector expressing ``n`` over the
    generators, in the order of :func:`factorizations`, as one list that is
    rewritten in place between calls.  Raises EnumerationLimitExceeded,
    before any work, past ENUMERATION_LIMIT."""
    if n < 0:
        return
    gens, k = S.generators, len(S.generators)
    # the recursion visits every (e_2, ..., e_k) with sum e_i g_i <= n: at
    # most C(n // g_2 + k - 1, k - 1) of them, as each g_i >= g_2
    if n * gens[0] > ENUMERATION_LIMIT or (
        k > 1 and comb(n // gens[1] + k - 1, k - 1) > ENUMERATION_LIMIT
    ):
        raise EnumerationLimitExceeded(
            f"n={n} exceeds the enumeration guard ({ENUMERATION_LIMIT}/g_1, "
            f"or {ENUMERATION_LIMIT} exponent vectors)"
        )
    expo = [0] * k

    def descend(i: int, rem: int) -> None:
        if i == 0:
            if rem % gens[0] == 0:
                expo[0] = rem // gens[0]
                visit(expo)
            return
        g = gens[i]
        for e in range(rem // g, -1, -1):
            expo[i] = e
            descend(i - 1, rem - e * g)
        expo[i] = 0

    descend(k - 1, n)


def factorizations(S: NumericalMonoid, n: int) -> list[Factorization]:
    """All exponent vectors expressing ``n`` over the generators.

    Empty iff n is not in the monoid; n = 0 gives the zero vector.  Ordered
    lexicographically descending in the exponent of the largest generator
    (then recursively), so output is deterministic.  Raises
    EnumerationLimitExceeded, before any work, past ENUMERATION_LIMIT.
    """
    out: list[Factorization] = []
    _visit_factorizations(S, n, lambda expo: out.append(Factorization(tuple(expo))))
    return out


def length_set(S: NumericalMonoid, n: int) -> set[int]:
    """The set of factorization lengths of ``n``; raises if n is outside S.

    Collects each vector's length as the enumeration reaches it, with the
    guard of :func:`factorizations`, and keeps no vector."""
    lengths: set[int] = set()
    _visit_factorizations(S, n, lambda expo: lengths.add(sum(expo)))
    if not lengths:
        raise NotInMonoid(f"{n} is not in {S}")
    return lengths


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
    """(n, M(n), m(n)) as ints for every monoid element in [lo, hi], ascending,
    read from :meth:`WindowTables.columns`.

    The monoid's breakpoints are found, or TableTooLarge raised, by this call.
    """
    return window_tables(S.generators).rows(lo, hi)


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

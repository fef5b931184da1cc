"""Factorization enumeration and length statistics over a numerical monoid.

Maximal and minimal factorization lengths M(n) and m(n) are computed from
dynamic-programming tables built once per monoid, up to the windows where
the recurrences M(n) = M(n - g_1) + 1 (for n > (g_1 - 1) g_k) and
m(n) = m(n - g_k) + 1 (for n > (g_k - 1) g_{k-1}) take over.  Elements
beyond a window are answered in O(1) by stepping back into it; the tables
are never extended past the thresholds.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EnumerationLimitExceeded,
    InternalInconsistency,
    NoSubcollection,
    NotInMonoid,
)
from .monoid import NumericalMonoid

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


class _LengthTables:
    __slots__ = (
        "gens",
        "g1",
        "gk",
        "max_limit",
        "min_limit",
        "max_table",
        "min_table",
        "frobenius",
    )


def _compute_tables(S: NumericalMonoid) -> _LengthTables:
    t = _LengthTables()
    gens = S.generators
    t.gens = gens
    t.g1, t.gk = gens[0], gens[-1]
    if len(gens) == 1:
        # only <1> is valid with one generator; M(n) = m(n) = n
        t.max_limit = t.min_limit = 0
        t.max_table = array("i", [0])
        t.min_table = array("i", [0])
        t.frobenius = -1
        return t
    g1, gk, gk1 = t.g1, t.gk, gens[-2]
    t.max_limit = (g1 - 1) * gk
    t.min_limit = (gk - 1) * gk1
    # 32-bit entries; array('i') raises OverflowError if a length ever overflows
    maxt = array("i", [-1]) * (t.max_limit + 1)
    mint = array("i", [-1]) * (t.min_limit + 1)
    maxt[0] = 0
    mint[0] = 0
    for n in range(1, t.max_limit + 1):
        best = -1
        for g in gens:
            if g > n:
                break
            prev = maxt[n - g]
            if prev > best:
                best = prev
        if best >= 0:
            maxt[n] = best + 1
    for n in range(1, t.min_limit + 1):
        best = -1
        for g in gens:
            if g > n:
                break
            prev = mint[n - g]
            if prev >= 0 and (best < 0 or prev < best):
                best = prev
        if best >= 0:
            mint[n] = best + 1
    frob = -1
    for n in range(t.min_limit + 1):
        if mint[n] < 0:
            frob = n
    # the windows must clear the Frobenius number, else the O(1) steps
    # could land outside the monoid
    if frob + g1 > t.max_limit:
        raise InternalInconsistency(f"membership gap inside the max window of {S}")
    if frob + g1 > t.min_limit:
        raise InternalInconsistency(f"membership gap inside the min window of {S}")
    t.frobenius = frob
    t.max_table = maxt
    t.min_table = mint
    return t


_TABLES: dict[tuple[int, ...], _LengthTables] = {}


def _tables(S: NumericalMonoid) -> _LengthTables:
    t = _TABLES.get(S.generators)
    if t is None:
        t = _compute_tables(S)
        _TABLES[S.generators] = t
    return t


def clear_table_cache() -> None:
    _TABLES.clear()


def _is_member(t: _LengthTables, n: int) -> bool:
    if n < 0:
        return False
    if len(t.gens) == 1:
        return True
    if n <= t.min_limit:
        return t.min_table[n] >= 0
    return n > t.frobenius


def _max_from(t: _LengthTables, n: int) -> int:
    if len(t.gens) == 1:
        return n
    if n <= t.max_limit:
        return t.max_table[n]
    steps = -((t.max_limit - n) // t.g1)
    value = t.max_table[n - steps * t.g1]
    assert value >= 0
    return value + steps


def _min_from(t: _LengthTables, n: int) -> int:
    if len(t.gens) == 1:
        return n
    if n <= t.min_limit:
        return t.min_table[n]
    steps = -((t.min_limit - n) // t.gk)
    value = t.min_table[n - steps * t.gk]
    assert value >= 0
    return value + steps


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
    t = _tables(S)
    if not _is_member(t, n):
        raise NotInMonoid(f"{n} is not in {S}")
    return _max_from(t, n)


def min_length(S: NumericalMonoid, n: int) -> int:
    """m(n): the smallest factorization length of ``n``."""
    t = _tables(S)
    if not _is_member(t, n):
        raise NotInMonoid(f"{n} is not in {S}")
    return _min_from(t, n)


def elasticity(S: NumericalMonoid, n: int) -> Fraction:
    """M(n)/m(n) as a reduced fraction; elasticity(S, 0) = 1 by convention."""
    t = _tables(S)
    if not _is_member(t, n):
        raise NotInMonoid(f"{n} is not in {S}")
    if n == 0:
        return Fraction(1)
    return Fraction(_max_from(t, n), _min_from(t, n))


def iter_lengths(S: NumericalMonoid, lo: int, hi: int) -> Iterator[tuple[int, int, int]]:
    """(n, M(n), m(n)) as ints for every monoid element in [lo, hi], ascending.

    Reads the tables directly: inside a window by index, past it by the same
    O(1) step back into the window that max_length and min_length take.
    """
    t = _tables(S)
    start = max(lo, 0)
    if len(t.gens) == 1:
        for n in range(start, hi + 1):
            yield n, n, n
        return
    g1, gk = t.g1, t.gk
    max_limit, min_limit = t.max_limit, t.min_limit
    maxt, mint = t.max_table, t.min_table
    for n in range(start, hi + 1):
        if n <= min_limit:
            small = mint[n]
            if small < 0:
                continue
        else:
            # past the min window, which clears the Frobenius number
            steps = (n - min_limit + gk - 1) // gk
            small = mint[n - steps * gk] + steps
        if n <= max_limit:
            big = maxt[n]
        else:
            steps = (n - max_limit + g1 - 1) // g1
            big = maxt[n - steps * g1] + steps
        yield n, big, small


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

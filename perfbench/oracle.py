"""Independent answers the benchmark checks numelast's outputs against.

Lengths and membership come from the brute-force recurrence arrays of
``tests/oracles.py``, imported read-only.  Past the end of an array, M and m
follow the one-atom recurrences M(n) = M(n - g_1) + 1 and m(n) = m(n - g_k) + 1,
which hold beyond the windows (g_1 - 1) g_k and (g_k - 1) g_{k-1}.  Elasticity
sets are rebuilt from the same arrays as a finite part below B0 + period plus
one tail sequence (M0 + t g_k)/(m0 + t g_1) per residue, with B0 = g_{k-1} g_k
and period g_1 g_k, and queried with numpy over all tails at once.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave tests/ exactly as checked out
sys.path.insert(0, str(ROOT / "tests"))
import oracles  # noqa: E402

sys.path.pop(0)
sys.dont_write_bytecode = False


def reduced(num: int, den: int) -> tuple[int, int]:
    g = gcd(num, den)
    return num // g, den // g


def minimal_generators(raw) -> tuple[int, ...]:
    """Atoms of the monoid generated by ``raw``: generators with M(g) = 1 over raw."""
    gens = tuple(sorted(set(raw)))
    maxs, _ = oracles.recurrence_length_arrays(gens, gens[-1])
    return tuple(g for g in gens if maxs[g] == 1)


class MonoidOracle:
    """M, m, membership and Frobenius number of one monoid, from recurrence arrays."""

    def __init__(self, gens, limit: int = 0):
        self.gens = tuple(gens)
        g1, gk, gk1 = self.gens[0], self.gens[-1], self.gens[-2]
        self.g1, self.gk = g1, gk
        # the arrays reach past both windows by 2 g_k, so the one-atom steps
        # below only ever land strictly inside the range where they hold
        self.size = max((g1 - 1) * gk, (gk - 1) * gk1, limit) + 2 * gk
        self.maxs, self.mins = oracles.recurrence_length_arrays(self.gens, self.size)

    def member(self, n: int) -> bool:
        # every n past the windows is a member (Frobenius < (g_1 - 1)(g_k - 1))
        return n >= 0 and (n > self.size or self.maxs[n] >= 0)

    def max_len(self, n: int) -> int:
        if n <= self.size:
            return self.maxs[n]
        steps = -((self.size - n) // self.g1)
        return self.maxs[n - steps * self.g1] + steps

    def min_len(self, n: int) -> int:
        if n <= self.size:
            return self.mins[n]
        steps = -((self.size - n) // self.gk)
        return self.mins[n - steps * self.gk] + steps

    def elasticity(self, n: int) -> tuple[int, int]:
        if n == 0:
            return 1, 1
        return reduced(self.max_len(n), self.min_len(n))

    def frobenius(self) -> int:
        return max((n for n in range(self.size + 1) if self.maxs[n] < 0), default=-1)

    def members_in(self, lo: int, hi: int) -> int:
        """Number of monoid elements in [lo, hi]."""
        gaps = sum(1 for n in range(max(lo, 0), min(hi, self.size) + 1) if self.maxs[n] < 0)
        return hi - max(lo, 0) + 1 - gaps


class ElasticityOracle(MonoidOracle):
    """The elasticity set as finite part plus tail sequences, rebuilt from the arrays."""

    def __init__(self, gens):
        gens = tuple(gens)
        self.base = gens[-2] * gens[-1]
        self.period = gens[0] * gens[-1]
        super().__init__(gens, self.base + self.period)
        finite: dict[tuple[int, int], int] = {}
        for n in range(1, self.base + self.period):
            if self.maxs[n] >= 0:
                finite.setdefault(reduced(self.maxs[n], self.mins[n]), n)
        self.finite = finite
        tails = range(self.base, self.base + self.period)
        self.tail_max = np.array([self.maxs[n] for n in tails], dtype=np.int64)
        self.tail_min = np.array([self.mins[n] for n in tails], dtype=np.int64)

    def tail_value(self, index: int, t: int) -> tuple[int, int]:
        return reduced(int(self.tail_max[index]) + t * self.gk, int(self.tail_min[index]) + t * self.g1)

    def solve(self, num: int, den: int) -> int | None:
        """An element with elasticity num/den (the smallest one when it lies in
        the finite part), or None when the value is not in the set."""
        num, den = reduced(num, den)
        if num < den or num * self.g1 > den * self.gk:
            return None
        hit = self.finite.get((num, den))
        if hit is not None:
            return hit
        slope = num * self.g1 - den * self.gk
        if slope == 0:
            return self.g1 * self.gk
        tail_max, tail_min = self.tail_max, self.tail_min
        if max(num, den) >= 2**40:  # keep den * M0 - num * m0 exact beyond int64
            tail_max, tail_min = tail_max.astype(object), tail_min.astype(object)
        tn = den * tail_max - num * tail_min
        idx = np.flatnonzero((tn % slope == 0) & (tn // slope >= 0))
        if idx.size == 0:
            return None
        i = int(idx[0])
        return self.base + i + int(tn[i] // slope) * self.period

    def contains(self, num: int, den: int) -> bool:
        return self.solve(num, den) is not None

    def attains(self, num: int, den: int, n: int) -> bool:
        """n is an element whose elasticity is num/den, by the length recurrences."""
        return n >= 1 and self.member(n) and self.elasticity(n) == reduced(num, den)

    def profile_dict(self) -> dict:
        """The JSON form numelast's profile output promises, built independently."""
        finite = sorted(self.finite.items(), key=lambda kv: Fraction(*kv[0]))
        return {
            "generators": list(self.gens),
            "base": self.base,
            "period": self.period,
            "finite_part": [[num, den, n] for (num, den), n in finite],
            "sequences": [
                [self.base + i, int(a), int(b)]
                for i, (a, b) in enumerate(zip(self.tail_max, self.tail_min))
            ],
        }


def same_value_sets(p1: tuple[int, int, int], p2: tuple[int, int, int]) -> bool:
    """The tuple criterion for <a, a+d, ..., a+kd>: equal sets iff equal (a, d, k),
    or equal d and a/k with gcd(a, k) >= 2 on both sides."""
    (a1, d1, k1), (a2, d2, k2) = p1, p2
    if p1 == p2:
        return True
    return d1 == d2 and a1 * k2 == a2 * k1 and gcd(a1, k1) >= 2 and gcd(a2, k2) >= 2


def progression(gens) -> tuple[int, int, int] | None:
    """(a, d, k) when ``gens`` is a minimal arithmetic progression a, a+d, ..., a+kd."""
    if len(gens) < 2:
        return None
    d = gens[1] - gens[0]
    if any(b - a != d for a, b in zip(gens, gens[1:])):
        return None
    a, k = gens[0], len(gens) - 1
    if gcd(a, d) != 1 or not 1 <= k < a:
        return None
    return a, d, k

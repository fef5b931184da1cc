"""Helpers that several test modules share: the finite part as Fractions
and the start of every residue class of a profile, a line index that
counts full passes, seeded pairs of monoids with equal limits, wrapped or
widened length columns of a build, and the fields of the package's value
objects."""

import random
from fractions import Fraction
from math import gcd

import numelast.profile
from numelast import iter_lengths, new_monoid


def field_names(value):
    """The fields of a value object of the package, in order, as its class names them."""
    return type(value).__match_args__


def replaced(value, **changes):
    """A new value object like ``value`` with the named fields changed, built
    through its class's constructor, as ``dataclasses.replace`` built one."""
    names = field_names(value)
    unknown = changes.keys() - set(names)
    if unknown:
        raise TypeError(f"{type(value).__name__} has no fields {sorted(unknown)}")
    return type(value)(**{name: changes.get(name, getattr(value, name)) for name in names})


def finite_values(profile):
    """The finite part as value -> smallest witness, in increasing value:
    ``{Fraction(M, m): n}`` from ``profile.finite``.  Build it once per
    profile; it is the ``finite_part`` view, made without reading it."""
    return {Fraction(big, small): n for big, small, n in profile.finite.values()}


def columns(profile):
    """(M0, m0) of every residue class, in class order: M and m at base + i."""
    end = profile.base + profile.period - 1
    return [(big, small) for _, big, small in iter_lengths(profile.monoid, profile.base, end)]


class _CountingLines(dict):
    """A profile's line index that records how a query visits it: a query
    that passes over every line iterates the dict, one that walks the
    multiples of its line step only looks lines up."""

    def __init__(self, lines):
        super().__init__(lines)
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def _draw(rng, lo, hi):
    """Generators lo < ... < hi with up to three random ones in between, gcd 1."""
    while True:
        middle = rng.sample(range(lo + 1, hi), rng.randint(0, min(3, hi - lo - 1)))
        gens = [lo, *middle, hi]
        if gcd(*gens) == 1:
            return gens


def _same_limit_pairs(seed, count, scaled):
    """Pairs with the same (g_1, g_k), and pairs with (g_1, g_k) against
    (2 g_1, 2 g_k), all generators <= 16, kept when the normalized limits agree."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count + scaled:
        want_scaled = len(pairs) >= count
        g1 = rng.randint(2, 7 if want_scaled else 15)
        gk = rng.randint(g1 + 1, 8 if want_scaled else 16)
        if want_scaled:
            if gk <= g1 + 1 or gcd(g1, gk) != 1:
                continue
            S1 = new_monoid(_draw(rng, g1, gk))
            S2 = new_monoid(_draw(rng, 2 * g1, 2 * gk))
        else:
            S1, S2 = new_monoid(_draw(rng, g1, gk)), new_monoid(_draw(rng, g1, gk))
        if Fraction(S1.gk, S1.g1) == Fraction(S2.gk, S2.g1):
            pairs.append((S1, S2))
    return pairs


class _ColumnsProxy:
    """One monoid's tables with ``columns`` replaced; every other attribute
    is the tables' own."""

    def __init__(self, tables, columns):
        self._tables, self.columns = tables, columns

    def __getattr__(self, name):
        return getattr(self._tables, name)


def wrap_columns(monkeypatch, wrap):
    """Make build_profile read its length columns as ``wrap(columns, lo,
    hi)``, ``columns`` the tables' own method.  Only the tables that
    build_profile looks up are wrapped, not the WindowTables class, so the
    scans of iter_lengths are not."""
    tables_of = numelast.profile.window_tables

    def proxy(generators):
        tables = tables_of(generators)
        return _ColumnsProxy(tables, lambda lo, hi: wrap(tables.columns, lo, hi))

    monkeypatch.setattr(numelast.profile, "window_tables", proxy)


def widen_columns(monkeypatch, widen):
    """Make build_profile read every length column through ``widen``."""

    def wide(columns, lo, hi):
        for start, big, small in columns(lo, hi):
            yield start, widen(big), widen(small)

    wrap_columns(monkeypatch, wide)

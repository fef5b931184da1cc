"""Smoke check of the running copy, behind the ``verify`` CLI command.

One check per suite re-derives a library result along an independent route
(table-free enumeration, the value-preserving embedding, the tail
decomposition) at desk scale and returns True on agreement.  The checks
need neither pytest nor the test oracles, and they decide with ``if``, not
``assert``, so they also run on an installed copy under ``python -O``.
The full oracle-backed battery lives in ``tests/``.
"""

from __future__ import annotations

from fractions import Fraction

from . import arithmetical as ar
from . import monoid as mo
from . import profile as pr
from .lengths import (
    elasticity as _elasticity,
    factorizations as _factorizations,
    iter_lengths as _iter_lengths,
    max_length as _max_length,
    min_length as _min_length,
)


def check_length_tables_against_enumeration() -> bool:
    for gens in ((3, 5, 7), (6, 10, 13, 14), (7, 12, 17, 22), (3, 5)):
        S = mo.new_monoid(gens)
        for n in range(0, 260):
            lengths = {f.length for f in _factorizations(S, n)}
            if not lengths:
                continue
            if _max_length(S, n) != max(lengths):
                return False
            if _min_length(S, n) != min(lengths):
                return False
    return True


def check_embedding_preserves_values() -> bool:
    p_from = mo.ArithmeticalParams(7, 3, 3)
    p_to = mo.ArithmeticalParams(14, 3, 6)
    for t in ar.enumerate_tuples(p_from, 40):
        image = ar.phi_embed(p_from, p_to, t)
        if not ar.is_valid_tuple(p_to, image):
            return False
        if ar.tuple_elasticity(p_to, image) != ar.tuple_elasticity(p_from, t):
            return False
    return True


def check_profile_decomposition() -> bool:
    # a build reads one period from the last breakpoint N0, split at
    # lo = base - c period, c whole periods past N0: it shifts [lo, N0 +
    # period) c periods and [N0, lo) c + 1; the monoids cover c = 0 (<3,5>),
    # c = 1 (<65,79,83>) and c = 2 (<7,12,17,22>, <31,57,73,101>); the
    # period scan of <65,79,83> reads two column chunks, so the packed pair
    # codes are checked across a chunk seam
    for gens in ((3, 5), (7, 12, 17, 22), (31, 57, 73, 101), (65, 79, 83)):
        S = mo.new_monoid(gens)
        prof = pr.build_profile(S)
        for n, big, small in _iter_lengths(S, 1, prof.base + 3 * prof.period):
            if n < prof.base + prof.period:
                found, witness = pr.contains_elasticity(prof, Fraction(big, small))
                if not found or witness > n:
                    return False
            else:
                t, idx = divmod(n - prof.base, prof.period)
                if pr.sequence_value(prof, idx, t) != Fraction(big, small):
                    return False
        # tail values past the finite part, solved on the tail lines
        for idx in range(0, prof.period, max(1, prof.period // 25)):
            for t in (1, 50, 10**4):
                value = pr.sequence_value(prof, idx, t)
                found, witness = pr.contains_elasticity(prof, value)
                if not found or _elasticity(S, witness) != value:
                    return False
    return True


SUITES: dict[str, tuple[str, object]] = {
    "core": ("length_tables_match_enumeration", check_length_tables_against_enumeration),
    "arith": ("embedding_preserves_values", check_embedding_preserves_values),
    "profile": ("profile_decomposition", check_profile_decomposition),
}


def run_suites(names) -> bool:
    """Run the named suites, printing one PASS/FAIL line per suite."""
    all_ok = True
    for suite in names:
        name, check = SUITES[suite]
        try:
            ok, note = bool(check()), ""
        except Exception as exc:  # no check asserts, so any exception is a failed check
            ok, note = False, f" ({type(exc).__name__}: {exc})"
        print(f"{'PASS' if ok else 'FAIL'} {suite}.{name}{note}")
        all_ok = all_ok and ok
    return all_ok

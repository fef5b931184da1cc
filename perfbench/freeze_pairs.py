"""Regenerate pairs.json: the compare-mix pool with its frozen expected verdicts.

    PYTHONPATH=src python3 perfbench/freeze_pairs.py

The pool holds POOL_SIZE same-limit pairs with generators <= 22, a fifth of
them pairs of arithmetic progressions, sorted by the time ``compare_profiles``
took on them (median of three, scaled to nominal machine speed), so that
compare-mix can draw one pair per cost stratum and every seed gets the same
mix of cheap and costly pairs.  The
tier holds fixed mid-size pairs.  Each verdict is taken from
``compare_profiles`` at the time of freezing and is kept only after the
oracle confirms it: a not_equal witness lies in exactly one set, an equal
verdict survives a bounded cross-check, and progression pairs agree with the
tuple criterion.  Regenerating the file changes the benchmark.
"""

from __future__ import annotations

import json
import random
import statistics
from collections import defaultdict
from math import gcd
from pathlib import Path
from time import perf_counter

import speed
from numelast import clear_caches, compare_profiles, new_monoid
from oracle import minimal_generators, progression, reduced, same_value_sets
from workloads import Context, bounded_equal, separating_problem

POOL_SIZE = 1200
POOL_SEED = 1409_3425
MAX_GENERATOR = 22
PROGRESSION_SHARE = 0.2
TIMINGS = 3
TIER = (
    ((13, 21, 29, 37), (13, 21, 29, 37)),
    ((17, 25, 33, 41), (17, 25, 33, 41)),
    ((25, 33, 41, 49), (25, 33, 41, 49)),
    ((20, 21, 45), (20, 21, 45)),
)


def draw_monoid(rng: random.Random, g1: int, gk: int) -> tuple[int, ...] | None:
    middle = rng.sample(range(g1 + 1, gk), min(rng.randint(0, 2), gk - g1 - 1))
    gens = sorted({g1, gk, *middle})
    if gcd(*gens) != 1:
        return None
    atoms = minimal_generators(gens)
    return atoms if (atoms[0], atoms[-1]) == (g1, gk) else None


def same_limit_pair(rng: random.Random):
    while True:
        gk = rng.randint(3, MAX_GENERATOR)
        g1 = rng.randint(2, gk - 1)
        num, den = reduced(gk, g1)
        scale = rng.randint(1, MAX_GENERATOR // num)
        first = draw_monoid(rng, g1, gk)
        second = draw_monoid(rng, scale * den, scale * num)
        if first and second:
            return first, second


def progressions_by_limit() -> list[list[tuple[int, ...]]]:
    groups = defaultdict(list)
    for a in range(2, MAX_GENERATOR):
        for d in range(1, MAX_GENERATOR):
            for k in range(1, a):
                if a + k * d <= MAX_GENERATOR and gcd(a, d) == 1:
                    groups[reduced(a + k * d, a)].append(tuple(a + i * d for i in range(k + 1)))
    return [group for _, group in sorted(groups.items()) if len(group) > 1]


def cost(gens1, gens2) -> float:
    """Median over TIMINGS cold ``compare_profiles`` calls, each scaled by the
    machine's speed read just before it."""
    times = []
    for _ in range(TIMINGS):
        clear_caches()
        factor = speed.factor(speed.reading(), speed.WEIGHTS["compare-mix"])
        start = perf_counter()
        compare_profiles(new_monoid(gens1), new_monoid(gens2))
        times.append((perf_counter() - start) / factor)
    return statistics.median(times)


def write_pairs(frozen: dict) -> None:
    path = Path(__file__).resolve().parent / "pairs.json"
    with open(path, "w") as handle:
        handle.write("{\n")
        for key in ("pool", "tier"):
            rows = ",\n".join("  " + json.dumps(row) for row in frozen[key])
            handle.write(f' "{key}": [\n{rows}\n ]' + (",\n" if key == "pool" else "\n"))
        handle.write("}\n")


def main() -> None:
    rng = random.Random(POOL_SEED)
    groups = progressions_by_limit()
    pairs = set()
    while len(pairs) < POOL_SIZE:
        if rng.random() < PROGRESSION_SHARE:
            group = rng.choice(groups)
            pairs.add((rng.choice(group), rng.choice(group)))
        else:
            pairs.add(same_limit_pair(rng))
    ctx = Context({"pool": [], "tier": []})
    frozen = {"pool": [], "tier": []}
    counts = defaultdict(int)
    for key, chosen in (("pool", sorted(pairs)), ("tier", TIER)):
        for gens1, gens2 in chosen:
            clear_caches()
            verdict = compare_profiles(new_monoid(gens1), new_monoid(gens2))
            outcome = verdict.outcome
            o1, o2 = ctx.elasticity(gens1), ctx.elasticity(gens2)
            problem = None
            if outcome == "not_equal":
                problem = separating_problem(o1, o2, [verdict.witness.numerator, verdict.witness.denominator])
            elif outcome == "equal" and not bounded_equal(o1, o2):
                problem = "equal verdict fails the bounded cross-check"
            p1, p2 = progression(gens1), progression(gens2)
            if p1 and p2 and outcome != "unknown" and (outcome == "equal") != same_value_sets(p1, p2):
                problem = "verdict contradicts the tuple criterion"
            if problem:
                raise SystemExit(f"{gens1} vs {gens2}: {problem}")
            counts[outcome] += 1
            frozen[key].append([list(gens1), list(gens2), outcome])
    frozen["pool"].sort(key=lambda e: cost(e[0], e[1]))
    write_pairs(frozen)
    print(dict(counts))


if __name__ == "__main__":
    main()

"""The machine's current speed, read from two fixed pure-Python loops.

On a shared machine the same work runs at different speeds from one second
to the next, and over minutes by up to 1.5x.  Not all code slows alike: a loop
of small-integer arithmetic slows less than one that creates objects and calls
methods.  A reading times both loops; a workload weighs them by how much of
its own work is of each kind (``WEIGHTS``, fitted by timing each workload's
calls between readings on this machine), and each time in a pass is
divided by the factor read over that pass, so that a figure follows the
program and not the neighbours.  The object loop uses a class of its own: a standard-library class
the program also uses, such as Fraction, runs at a speed that depends on how
the program last called it.
"""

from __future__ import annotations

import gc
import statistics
from math import gcd
from time import perf_counter

INT_ITERATIONS = 20_000
OBJECT_ITERATIONS = 2_000
# the loops' times on a quiet 2-core x86-64 VM with CPython 3.11
NOMINAL_INT_S = 0.0013
NOMINAL_OBJECT_S = 0.0010
# a bare ``python3 -c`` start that prints one line, on the same machine
NOMINAL_START_S = 0.045
# how often an in-process client re-reads the speed, in seconds of wall time
EVERY_S = 0.05
# share of the object loop in each workload's speed factor; the rest is the
# integer loop.  Profile scans are big-integer arithmetic; compare builds and
# compares Fractions.
WEIGHTS = {
    "cli-stats": 0.5,
    "point-queries": 0.5,
    "profile-queries": 0.25,
    "compare-mix": 0.75,
}
# what power of the loops' slowdown a workload's own code shows.  Over ten
# compare-mix runs the factor ranged over 1.2-2.0 while the unscaled rate
# moved by a third of that; the spread of ops_per_s was smallest at 0.5 and
# that of the tail at 0.75.
SENSITIVITY = {
    "cli-stats": 1.0,
    "point-queries": 1.0,
    "profile-queries": 1.0,
    "compare-mix": 0.6,
}


class _Ratio:
    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        g = gcd(num, den)
        self.num, self.den = num // g, den // g

    def __lt__(self, other: _Ratio) -> bool:
        return self.num * other.den < other.num * self.den


_HALF = _Ratio(3, 2)


def reading() -> tuple[float, float]:
    """Seconds for the integer loop and for the object loop, with the
    cyclic garbage collector off: a collection would time the caller's heap."""
    collecting = gc.isenabled()
    gc.disable()
    start = perf_counter()
    total = 0
    for i in range(INT_ITERATIONS):
        total += i * i
    middle = perf_counter()
    below = 0
    for i in range(OBJECT_ITERATIONS):
        below += _Ratio(i + 1, 7) < _HALF
    end = perf_counter()
    if collecting:
        gc.enable()
    return middle - start, end - middle


def median_pair(readings) -> tuple[float, float]:
    """Each loop's median over ``readings``; a reading cut by a context switch
    does not move it."""
    return tuple(statistics.median(r[k] for r in readings) for k in (0, 1))


def factor(pair, weight: float) -> float:
    """How much slower than nominal the machine ran when ``pair`` was read."""
    int_s, object_s = pair
    return (int_s / NOMINAL_INT_S) ** (1 - weight) * (object_s / NOMINAL_OBJECT_S) ** weight


def scaled(latencies: list[float], readings: list, weight: float, sensitivity: float = 1.0) -> list[float]:
    """Latencies scaled to nominal speed by one factor for the whole pass,
    from the median of each loop over all of the pass's ``readings`` (op
    index, int loop seconds, object loop seconds).  One reading, and the
    operation next to it, each vary by about a third from one to the next
    and independently of each other, so only a speed held over seconds can be
    read and scaled away."""
    pass_factor = factor(median_pair([r[1:] for r in readings]), weight) ** sensitivity
    return [latency / pass_factor for latency in latencies]

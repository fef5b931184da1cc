"""One pass of an in-process workload, run by ``run.py`` in a fresh interpreter.

Reads {"workload", "trace", "inputs"} as JSON on stdin, runs the operations
one after another (a closed loop with a single client), and writes the
latencies, the encoded outputs, the peak RSS taken right after the last
operation and, when traced, the spans as JSON on stdout.  Outputs are checked
by the parent, so this process imports nothing but numelast and the standard
library and its RSS is the program's.

A query that reads only what earlier operations built (membership after the
Frobenius number is known, a length lookup on a built table, a profile
membership query) is repeated back to back while it stays under REPEAT_BELOW_S,
up to REPEATS calls, and its time is the fastest call: a microsecond query
otherwise mostly measures how much the slow operation before it left the CPU's
caches cold.  Traced passes call every operation once.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter

import speed
from tracing import Tracer, call, self_times

import numelast
from numelast import (
    build_profile,
    compare_profiles,
    contains,
    contains_elasticity,
    detect_arithmetical,
    elasticity,
    elasticity_sets_equal_arithmetical,
    frobenius,
    max_length,
    maximal_coprime_tuple,
    min_length,
    new_monoid,
    profile_to_json,
    three_minimal_elasticities,
    tuple_elasticity,
)

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
REPEAT_BELOW_S = 0.001


def _frac(value):
    return None if value is None else [value.numerator, value.denominator]


def _hit_or_miss(name):
    return lambda answer: name + (".hit" if answer[0] else ".miss")


class Client:
    """Times each operation; a raised exception is recorded as the op's output.
    Between operations it re-reads the machine's speed every speed.EVERY_S."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.outputs: list = []
        self.speed: list[tuple[int, float, float]] = []
        self.read_speed()

    def read_speed(self):
        self.speed.append((len(self.latencies), *speed.reading()))
        self.speed_read_at = perf_counter()

    def op(self, name, fn, *args, encode=None, repeat=False):
        """One library call as one operation; ``repeat`` marks a pure query."""
        if self.tracer is None:
            return self._run(fn, args, encode, repeat)
        return self._run(self.tracer.call, (name, fn, *args), encode)

    def op_with(self, fn, *args, encode=None):
        """An operation made of several calls: fn(tracer, *args)."""
        return self._run(fn, (self.tracer, *args), encode)

    def _run(self, fn, args, encode, repeat=False):
        if perf_counter() - self.speed_read_at >= speed.EVERY_S:
            self.read_speed()
        tracer = self.tracer
        root = tracer.open("client", len(self.latencies)) if tracer else -1
        start = perf_counter()
        try:
            result = fn(*args)
            failed = False
        except Exception as exc:  # a failed op is counted, the pass goes on
            result = {"error": f"{type(exc).__name__}: {exc}"}
            failed = True
        elapsed = tracer.close(root) if tracer else perf_counter() - start
        for _ in range(REPEATS - 1 if repeat and not failed else 0):
            if elapsed >= REPEAT_BELOW_S:
                break
            start = perf_counter()
            fn(*args)
            elapsed = min(elapsed, perf_counter() - start)
        self.latencies.append(elapsed)
        self.outputs.append(result if failed or encode is None else encode(result))
        return None if failed else result


def point_queries(inputs, client: Client):
    lookups = {"max_length": max_length, "min_length": min_length, "elasticity": elasticity}
    for monoid in inputs["monoids"]:
        S = client.op("monoid.new_monoid", new_monoid, monoid["raw"], encode=lambda S: list(S.generators))
        if S is None:
            for _ in range(1 + len(monoid["queries"])):
                client.latencies.append(0.0)
                client.outputs.append({"error": "no monoid"})
            continue
        client.op("monoid.frobenius", frobenius, S)
        cold = True
        for kind, n in monoid["queries"]:
            if kind == "contains":
                client.op("monoid.contains", contains, S, n, repeat=True)
                continue
            # the first length lookup on a monoid builds its M/m tables
            name = "factorizations.cold_lookup" if cold else "factorizations.warm_lookup"
            encode = _frac if kind == "elasticity" else None
            client.op(name, lookups[kind], S, n, encode=encode, repeat=not cold)
            cold = False
    return {}


def profile_queries(inputs, client: Client):
    profiles = []
    for gens in inputs["monoids"]:
        S = new_monoid(gens)
        profiles.append(client.op("profile.build_profile", build_profile, S, encode=lambda p: None))
    queries = [(profiles[i], Fraction(num, den)) for i, num, den in inputs["queries"]]
    name = _hit_or_miss("profile.contains_elasticity")
    for profile, q in queries:
        client.op(name, contains_elasticity, profile, q, encode=list, repeat=True)
    return {"profiles": profiles}


def profile_digests(profiles, outputs):
    """Replace each build's output by a digest of its JSON form and its sizes."""
    for i, profile in enumerate(profiles):
        if profile is not None:
            text = profile_to_json(profile)
            outputs[i] = {
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "sequences": len(profile.sequences),
                "finite_part": len(profile.finite_part),
            }


def arithmetical_witness(p1, p2):
    """A value in exactly one of two unequal progression monoids' sets, chosen
    as the command-line compare chooses it."""
    s1, s2 = p1.step_bound(), p2.step_bound()
    if s1 != s2:
        return max(s1, s2)
    trio1 = three_minimal_elasticities(p1)
    trio2 = three_minimal_elasticities(p2)
    for v1, v2 in zip(trio1[1:], trio2[1:]):
        if v1 != v2:
            return min(v1, v2)
    side = p1 if gcd(p1.a, p1.k) >= 2 else p2
    return tuple_elasticity(side, maximal_coprime_tuple(side))


def compare_pair(tracer, raw1, raw2):
    """The command-line compare, with both verdicts cross-checked."""
    S1 = call(tracer, "monoid.new_monoid", new_monoid, raw1)
    S2 = call(tracer, "monoid.new_monoid", new_monoid, raw2)
    verdict = call(tracer, lambda v: "profile.compare_profiles." + v.outcome, compare_profiles, S1, S2)
    alignments = sum(len(side) for side in verdict.certificate) if verdict.certificate else 0
    out = {"outcome": verdict.outcome, "witness": _frac(verdict.witness), "alignments": alignments}
    p1 = call(tracer, "monoid.detect_arithmetical", detect_arithmetical, S1)
    p2 = call(tracer, "monoid.detect_arithmetical", detect_arithmetical, S2)
    if p1 is None or p2 is None:
        return out
    out["arith"] = call(tracer, "arithmetical.equal_sets", elasticity_sets_equal_arithmetical, p1, p2)
    if not out["arith"]:
        witness = call(tracer, "arithmetical.witness", arithmetical_witness, p1, p2)
        name = _hit_or_miss("profile.contains_elasticity")
        sides = []
        for S in (S1, S2):
            profile = call(tracer, "profile.build_profile", build_profile, S)
            sides.append(call(tracer, name, contains_elasticity, profile, witness)[0])
        out["arith_witness"] = _frac(witness)
        out["sides"] = sides
    return out


def compare_mix(inputs, client: Client):
    for raw1, raw2 in inputs["pairs"]:
        client.op_with(compare_pair, raw1, raw2)
    return {}


WORKLOADS = {
    "point-queries": point_queries,
    "profile-queries": profile_queries,
    "compare-mix": compare_mix,
}


def peak_rss_mb() -> float:
    """This process's own peak RSS.  getrusage would also count the parent's
    memory, which the spawned interpreter briefly shared."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    # one CPU, so the speed read between operations is that of the CPU they run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    request = json.load(sys.stdin)
    src = (ROOT / "src").resolve()
    if Path(numelast.__file__).resolve().parent.parent != src:
        print(f"error: numelast imported from {numelast.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = Tracer() if request["trace"] else None
    client = Client(tracer)
    kept = WORKLOADS[request["workload"]](request["inputs"], client)
    peak_mb = peak_rss_mb()
    client.read_speed()
    if "profiles" in kept:
        profile_digests(kept["profiles"], client.outputs)
    result = {
        "latencies": client.latencies,
        "speed": client.speed,
        "outputs": client.outputs,
        "peak_rss_mb": peak_mb,
        "optimize": sys.flags.optimize,
        "python": sys.version.split()[0],
    }
    if tracer:
        result["self_times"] = self_times(tracer.spans)
        result["spans"] = tracer.spans
    json.dump(result, sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

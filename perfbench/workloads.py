"""Seeded inputs for each workload and the checks applied to every output.

Inputs depend only on (workload, seed).  A run repeats the same fixed amount
of work, a pass, until its time is up, so the latency percentiles and the
per-pass layer counts mean the same thing on every commit.  Each check
returns one problem (or None) per operation.

cli-stats
    The fixed ladder of ``python -m numelast`` subcommands that users run,
    one subprocess at a time; the only workload where peak RSS follows
    output size.  The seed picks the rows that are spot-checked.
point-queries
    200 cold monoids per pass with 22 operations each, so table builds and
    the two unbounded caches dominate and profiles are never built.
profile-queries
    Three warm profiles and 2100 membership queries per pass: few monoids,
    many queries, the opposite cache pattern; tail scans dominate.
compare-mix
    100 same-limit pairs with generators <= 22 drawn from a frozen pool,
    plus a fixed tier of mid-size pairs where the alignment's growth with
    g_1 g_k shows.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

from oracle import (
    ElasticityOracle,
    MonoidOracle,
    minimal_generators,
    progression,
    reduced,
    same_value_sets,
)

HERE = Path(__file__).resolve().parent

POINT_MONOIDS = 200
POINT_GENERATOR_COUNTS = (2, 3, 4, 5)
STRATA_SAMPLE = 5000
POINT_QUERY_KINDS = ("contains", "max_length", "min_length", "elasticity")
POINT_QUERIES_PER_KIND = 5
POINT_MAX_GENERATOR = 300
POINT_MAX_N = 10**12

PROFILE_MONOIDS = ((31, 57, 73, 101), (101, 157, 203), (211, 307, 401))
PROFILE_QUERIES_PER_MONOID = 700
# finite-part hits and tail hits per monoid; the rest are drawn as misses.
# The counts are fixed, so every seed has the same mix and p50 falls among
# the finite-part hits.
PROFILE_FINITE_HITS = 420
PROFILE_TAIL_HITS = 175

COMPARE_PAIRS = 100

# every rung stays near a second, so a run holds several passes of the ladder
CLI_LADDER = (
    ("stats", "7,12,17,22"),
    ("stats", "31,57,73,101"),
    ("stats", "101,157,203"),
    ("stats", "31,57,73,101", "--format", "json"),
    ("plot", "31,57,73,101", "--kind", "rho"),
    ("profile", "31,57,73,101"),
    ("profile", "101,157,203"),
)
CLI_SPOT_ROWS = 200
CSV_HEADER = b"n,max_len,min_len,rho_num,rho_den"


class Context:
    """Oracles shared across the passes of one run, keyed by generators, and
    the frozen compare-mix pool."""

    def __init__(self, pairs: dict):
        self.pool = pairs["pool"]  # sorted by cost
        self.tier = pairs["tier"]
        self.expected = {
            (tuple(g1), tuple(g2)): outcome for g1, g2, outcome in self.pool + self.tier
        }
        self._sets: dict[tuple[int, ...], ElasticityOracle] = {}
        self._profile_json: dict[tuple[int, ...], str] = {}

    def elasticity(self, gens) -> ElasticityOracle:
        gens = tuple(gens)
        if gens not in self._sets:
            self._sets[gens] = ElasticityOracle(gens)
        return self._sets[gens]

    def profile_json(self, gens) -> str:
        gens = tuple(gens)
        if gens not in self._profile_json:
            text = json.dumps(self.elasticity(gens).profile_dict(), separators=(",", ":"))
            self._profile_json[gens] = text
        return self._profile_json[gens]


def load_pairs() -> dict:
    with open(HERE / "pairs.json") as handle:
        return json.load(handle)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# ---------------------------------------------------------------- point-queries


def _point_draw(rng: random.Random, k: int) -> tuple[int, ...]:
    """k generators below POINT_MAX_GENERATOR, unchecked."""
    gk = rng.randrange(12, POINT_MAX_GENERATOR)
    g1 = rng.randrange(2, gk - 1)
    middle = rng.sample(range(g1 + 1, gk), min(k - 2, gk - g1 - 1))
    return tuple(sorted({g1, gk, *middle}))


def _table_work(gens: tuple[int, ...]) -> int:
    """About how many steps building the M/m tables of ``gens`` takes: each
    window entry looks at every generator."""
    g1, gk = gens[0], gens[-1]
    return len(gens) * ((g1 - 1) * gk + (gk - 1) * gens[-2])


def _point_strata() -> dict[int, list[int]]:
    """For each generator count, the table work that splits draws into
    POINT_MONOIDS // 4 equally likely strata, from a fixed sample."""
    rng = random.Random("point-queries/strata")
    per_k = POINT_MONOIDS // len(POINT_GENERATOR_COUNTS)
    strata = {}
    for k in POINT_GENERATOR_COUNTS:
        work = sorted(_table_work(_point_draw(rng, k)) for _ in range(STRATA_SAMPLE))
        strata[k] = [work[i * STRATA_SAMPLE // per_k] for i in range(1, per_k)]
    return strata


def point_inputs(seed: int, ctx: Context) -> dict:
    rng = _rng("point-queries", seed)
    # every monoid's table work is drawn from its own stratum, so every pass
    # has the same spread of table-build costs whatever the seed
    strata = _point_strata()
    per_k = POINT_MONOIDS // len(POINT_GENERATOR_COUNTS)
    slots = {k: rng.sample(range(per_k), per_k) for k in POINT_GENERATOR_COUNTS}
    monoids = []
    seen = set()
    for j in range(POINT_MONOIDS):
        k = POINT_GENERATOR_COUNTS[j % len(POINT_GENERATOR_COUNTS)]
        stratum = slots[k][j // len(POINT_GENERATOR_COUNTS)]
        while True:
            gens = _point_draw(rng, k)
            if bisect_right(strata[k], _table_work(gens)) != stratum:
                continue
            if math.gcd(*gens) == 1 and gens not in seen:
                break
        seen.add(gens)
        raw = list(gens)
        if rng.random() < 1 / 3:
            raw.append(gens[0] + gens[1])  # redundant: normalization drops it
        if rng.random() < 1 / 3:
            raw.append(rng.choice(gens))  # duplicate
        rng.shuffle(raw)
        atoms = minimal_generators(raw)
        g1, gk = atoms[0], atoms[-1]
        window = max((g1 - 1) * gk, (gk - 1) * atoms[-2])
        queries = []
        for kind in POINT_QUERY_KINDS:
            for q in range(POINT_QUERIES_PER_KIND):
                if q % 2:
                    n = int(10 ** rng.uniform(math.log10(window + 1), math.log10(POINT_MAX_N)))
                elif kind == "contains":
                    n = rng.randint(0, window)
                else:  # a member inside the windows: a combination of atoms
                    n = sum(g * rng.randint(0, window // (len(atoms) * g)) for g in atoms)
                queries.append((kind, n))
        rng.shuffle(queries)
        monoids.append({"raw": raw, "queries": queries})
    return {"monoids": monoids}


def point_check(inputs: dict, outputs: list, ctx: Context) -> list[str | None]:
    problems = []
    pos = 0
    for monoid in inputs["monoids"]:
        atoms = minimal_generators(monoid["raw"])
        oracle = MonoidOracle(atoms)
        expected = [("new_monoid", list(atoms)), ("frobenius", oracle.frobenius())]
        for kind, n in monoid["queries"]:
            if kind == "contains":
                want = oracle.member(n)
            elif kind == "max_length":
                want = oracle.max_len(n)
            elif kind == "min_length":
                want = oracle.min_len(n)
            else:
                want = list(oracle.elasticity(n))
            expected.append((f"{kind}({n})", want))
        for op, want in expected:
            got = outputs[pos]
            problems.append(None if got == want else f"{atoms} {op}: got {got}, expected {want}")
            pos += 1
    return problems


# -------------------------------------------------------------- profile-queries


def profile_inputs(seed: int, ctx: Context) -> dict:
    rng = _rng("profile-queries", seed)
    queries = []
    for i, gens in enumerate(PROFILE_MONOIDS):
        oracle = ctx.elasticity(gens)
        finite = list(oracle.finite)
        g1, gk = gens[0], gens[-1]
        # tail hits stratify log t and the sequence (how far a scan runs)
        # independently, so their costs spread alike on every seed
        t_slots = rng.sample(range(PROFILE_TAIL_HITS), PROFILE_TAIL_HITS)
        index_slots = rng.sample(range(PROFILE_TAIL_HITS), PROFILE_TAIL_HITS)
        for j in range(PROFILE_QUERIES_PER_MONOID):
            if j < PROFILE_FINITE_HITS:
                num, den = rng.choice(finite)
            elif j < PROFILE_FINITE_HITS + PROFILE_TAIL_HITS:
                h = j - PROFILE_FINITE_HITS
                t = int(10 ** (2 + 4 * (t_slots[h] + rng.random()) / PROFILE_TAIL_HITS))
                index = int((index_slots[h] + rng.random()) * oracle.period / PROFILE_TAIL_HITS)
                num, den = oracle.tail_value(index, t)
            else:  # a fraction in (1, g_k/g_1]; almost always outside the set
                den = rng.randint(2, 10**4)
                num = rng.randint(den + 1, den * gk // g1)
            queries.append((i, num, den))
    rng.shuffle(queries)
    return {"monoids": [list(g) for g in PROFILE_MONOIDS], "queries": queries}


def profile_check(inputs: dict, outputs: list, ctx: Context) -> list[str | None]:
    problems = []
    for gens, got in zip(inputs["monoids"], outputs):
        want = hashlib.sha256(ctx.profile_json(gens).encode()).hexdigest()
        ok = isinstance(got, dict) and got.get("sha256") == want
        problems.append(None if ok else f"build_profile {gens}: output differs from the oracle's profile")
    for (i, num, den), got in zip(inputs["queries"], outputs[len(inputs["monoids"]):]):
        oracle = ctx.elasticity(inputs["monoids"][i])
        ok = _membership_ok(oracle, num, den, got)
        problems.append(None if ok else f"contains_elasticity {inputs['monoids'][i]} {num}/{den}: got {got}")
    return problems


def _membership_ok(oracle: ElasticityOracle, num: int, den: int, got) -> bool:
    if not isinstance(got, list):
        return False
    found, witness = got
    if oracle.solve(num, den) is None:
        return got == [False, None]
    smallest = oracle.finite.get(reduced(num, den))
    if smallest is not None:
        return got == [True, smallest]
    return found is True and oracle.attains(num, den, witness)


# ------------------------------------------------------------------ compare-mix


def compare_inputs(seed: int, ctx: Context) -> dict:
    rng = _rng("compare-mix", seed)
    # one draw per stratum of the sorted pool keeps the mix steady
    per = len(ctx.pool) // COMPARE_PAIRS
    chosen = [ctx.pool[s * per + rng.randrange(per)] for s in range(COMPARE_PAIRS)]
    chosen += ctx.tier
    rng.shuffle(chosen)
    return {"pairs": [[g1, g2] for g1, g2, _ in chosen]}


def compare_check(inputs: dict, outputs: list, ctx: Context) -> list[str | None]:
    problems = []
    for (raw1, raw2), got in zip(inputs["pairs"], outputs):
        expected = ctx.expected[tuple(raw1), tuple(raw2)]
        problem = verdict_problem(ctx, raw1, raw2, expected, got)
        problems.append(problem and f"compare {raw1} {raw2}: {problem}")
    return problems


def verdict_problem(ctx: Context, raw1, raw2, expected: str, got) -> str | None:
    """Why a compare output is wrong, or None when every check passes."""
    if "outcome" not in got:
        return f"failed: {got.get('error')}"
    atoms1, atoms2 = minimal_generators(raw1), minimal_generators(raw2)
    o1, o2 = ctx.elasticity(atoms1), ctx.elasticity(atoms2)
    outcome = got["outcome"]
    if outcome == "not_equal":
        problem = separating_problem(o1, o2, got["witness"])
        if problem:
            return "profile witness " + problem
    if outcome != expected:
        if expected != "unknown":
            return f"verdict {outcome}, frozen table says {expected}"
        # deciding a pair the table leaves open is allowed once checked
        if outcome == "equal" and not bounded_equal(o1, o2):
            return "equal verdict, but the sets differ on a bounded cross-check"
    p1, p2 = progression(atoms1), progression(atoms2)
    if p1 is None or p2 is None:
        return None if "arith" not in got else "arithmetical verdict on a non-progression"
    criterion = same_value_sets(p1, p2)
    if got.get("arith") is not criterion:
        return f"arithmetical verdict {got.get('arith')}, tuple criterion says {criterion}"
    if outcome != "unknown" and (outcome == "equal") != criterion:
        return f"verdict {outcome} contradicts the tuple criterion"
    if not criterion:
        problem = separating_problem(o1, o2, got["arith_witness"])
        if problem:
            return "arithmetical witness " + problem
        num, den = got["arith_witness"]
        if got["sides"] != [o1.contains(num, den), o2.contains(num, den)]:
            return f"witness membership {got['sides']} disagrees with the oracle"
    return None


def separating_problem(o1: ElasticityOracle, o2: ElasticityOracle, witness) -> str | None:
    """Brute-force confirmation that ``witness`` lies in exactly one of the two sets."""
    if witness is None:
        return "missing"
    num, den = witness
    in1, in2 = o1.contains(num, den), o2.contains(num, den)
    if in1 == in2:
        return f"{num}/{den} is {'in both sets' if in1 else 'in neither set'}"
    side = o1 if in1 else o2
    if not side.attains(num, den, side.solve(num, den)):
        return f"{num}/{den}: no element attains it"
    return None


def bounded_equal(o1: ElasticityOracle, o2: ElasticityOracle, t_max: int = 20) -> bool:
    """Every finite value and tail value up to step t_max of each side lies in the other."""
    for a, b in ((o1, o2), (o2, o1)):
        values = set(a.finite)
        values.update(a.tail_value(i, t) for i in range(a.period) for t in range(t_max + 1))
        if not all(b.contains(num, den) for num, den in values):
            return False
    return True


# -------------------------------------------------------------------- cli-stats


def default_range(gens) -> tuple[int, int]:
    """The documented default range [0, g_{k-1} g_k + 10 g_1 g_k]."""
    return 0, gens[-2] * gens[-1] + 10 * gens[0] * gens[-1]


def cli_spot_rows(seed: int, rung: int, count: int) -> list[int]:
    rng = _rng(f"cli-stats/{rung}", seed)
    return sorted(rng.randrange(count) for _ in range(CLI_SPOT_ROWS))


class Members:
    """The j-th element of a monoid, counting from 0, via its oracle arrays."""

    def __init__(self, oracle: MonoidOracle):
        self.oracle = oracle
        self.listed = [n for n in range(oracle.size + 1) if oracle.maxs[n] >= 0]

    def nth(self, j: int) -> int:
        if j < len(self.listed):
            return self.listed[j]
        return self.oracle.size + 1 + j - len(self.listed)


def members_of(members: dict, gens: tuple[int, ...]) -> Members:
    """The Members of ``gens``, made once per run and kept in ``members``."""
    if gens not in members:
        members[gens] = Members(MonoidOracle(gens))
    return members[gens]


def cli_check(args, out: bytes, seed: int, rung: int, ctx: Context, members: dict) -> str | None:
    """Why one subcommand's output is wrong, or None."""
    gens = tuple(int(g) for g in args[1].split(","))
    lo, hi = default_range(gens)
    if args[0] == "profile":
        ok = out == (ctx.profile_json(gens) + "\n").encode()
        return None if ok else "profile JSON differs from the oracle's"
    seq = members_of(members, gens)
    count = seq.oracle.members_in(lo, hi)
    spots = cli_spot_rows(seed, rung, count)
    if args[0] == "plot":
        return _svg_problem(out, gens, seq, count, spots)
    if "json" in args:
        rows = json.loads(out)
        if len(rows) != count:
            return f"{len(rows)} JSON rows, expected {count}"
        picked = [[r["n"], r["max_len"], r["min_len"], r["rho_num"], r["rho_den"]]
                  for r in (rows[j] for j in spots)]
    else:
        lines = out.split(b"\n")
        if lines[0] != CSV_HEADER or lines[-1] != b"" or len(lines) != count + 2:
            return f"CSV has {len(lines) - 2} rows or a bad header, expected {count} rows"
        picked = [[int(v) for v in lines[j + 1].split(b",")] for j in spots]
    for j, row in zip(spots, picked):
        n = seq.nth(j)
        M, m = seq.oracle.max_len(n), seq.oracle.min_len(n)
        want = [n, M, m, *(reduced(M, m) if n else (1, 1))]
        if row != want:
            return f"row {j} is {row}, expected {want}"
    return None


def _svg_problem(out: bytes, gens, seq: Members, count: int, spots) -> str | None:
    # the coordinates follow the plot's documented fixed 800x600 layout with
    # 60-unit margins; x spans [0, hi] and rho spans [1, g_k/g_1]
    lines = out.decode().split("\n")
    circles = [i for i, line in enumerate(lines) if line.startswith("<circle")]
    if len(circles) != count or not lines[0].startswith("<svg") or lines[-2] != "</svg>":
        return f"{len(circles)} points, expected {count}"
    x_hi = seq.nth(count - 1)
    y_hi = float(Fraction(gens[-1], gens[0]))
    for j in spots:
        n = seq.nth(j)
        y = float(Fraction(*seq.oracle.elasticity(n)))
        cx = f"{60 + n / x_hi * 680:.2f}"
        cy = f"{600 - 60 - (y - 1.0) / (y_hi - 1.0) * 480:.2f}"
        want = f'<circle cx="{cx}" cy="{cy}" r="2" fill="steelblue"/>'
        if lines[circles[j]] != want:
            return f"point {j} is {lines[circles[j]]}, expected {want}"
    return None

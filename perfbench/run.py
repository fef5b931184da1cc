"""The numelast benchmark: four seeded closed-loop workloads, one client each.

    python3 perfbench/run.py --workload point-queries --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; numelast is imported from ``src/`` next to this directory
and nothing needs installing.  A run measures set-up (fresh interpreter until
``import numelast`` is done, median of several), then repeats one seeded pass
of its workload, each time in fresh interpreters, until ``--seconds`` have
passed.  Every operation's output is checked against independent oracles
once the timed passes are over; each pass's times are scaled to nominal
machine speed by the speed read during that pass (speed.py), and each
operation's median over the passes is what the metrics are computed from.  ``--trace 1``
alternates untraced and traced passes and reports per-layer numbers instead.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only when
every output was right; a wrong answer counts as a failed operation.
Each run also writes its environment, metrics and failures to
``perfbench/out/``, and a traced run writes its spans there as JSON lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("cli-stats", "point-queries", "profile-queries", "compare-mix")
SETUP_ROUNDS = 7
SETUP_PROBES = 2
# candidate tail percentiles, highest first; the reported one is the highest
# with at least ten of a pass's operations beyond it
PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0)
PASS_TIMEOUT_S = 170
PROBE = "import sys, numelast; sys.stdout.write(numelast.__file__ + '\\n'); sys.stdout.flush()"
# the same interpreter start without numelast: the machine's speed at starting
# processes, which the loops in speed.py do not track
BARE_PROBE = "import sys; sys.stdout.write('\\n'); sys.stdout.flush()"

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# span names whose calls and self time are reported per traced pass
LAYER_SPANS = (
    "monoid.new_monoid",
    "monoid.frobenius",
    "monoid.contains",
    "factorizations.cold_lookup",
    "factorizations.warm_lookup",
    "factorizations.length_stats_range",
    "profile.build_profile",
    "profile.contains_elasticity.hit",
    "profile.contains_elasticity.miss",
    "profile.compare_profiles.equal",
    "profile.compare_profiles.not_equal",
    "profile.compare_profiles.unknown",
    "arithmetical.equal_sets",
    "arithmetical.witness",
)
CLI_SUBCOMMANDS = ("stats", "plot", "profile")
COUNTS = (
    "factorizations.length_stats_range.rows",
    "profile.sequences",
    "profile.finite_part",
    "profile.certificate_alignments",
)


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # the same string hashes, so the same dict and set layouts, in every process
    env["PYTHONHASHSEED"] = "0"
    return env


def probe_setup(env: dict, code: str = PROBE) -> float:
    """Seconds from starting an interpreter until ``code`` printed its line."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0:
        raise BenchmarkError(f"cannot start {sys.executable}")
    if code == PROBE and Path(line.decode().strip()).resolve().parent.parent != SRC.resolve():
        raise BenchmarkError(f"cannot import numelast from {SRC}")
    return elapsed


def setup_round(env: dict) -> tuple[float, float]:
    """(set-up, bare start): the fastest of SETUP_PROBES of each, alternated."""
    bare, full = [], []
    for _ in range(SETUP_PROBES):
        bare.append(probe_setup(env, BARE_PROBE))
        full.append(probe_setup(env))
    return min(full), min(bare)


def measure_setup(env: dict) -> tuple[float, float]:
    """(scaled, raw) median over SETUP_ROUNDS set-up rounds, after one set-up
    that may compile bytecode.  Each round is scaled by how much slower than
    speed.NOMINAL_START_S its bare interpreter start ran."""
    probe_setup(env)
    scaled, raw = [], []
    for _ in range(SETUP_ROUNDS):
        full, bare = setup_round(env)
        raw.append(full)
        scaled.append(full * speed.NOMINAL_START_S / bare)
    return statistics.median(scaled), statistics.median(raw)


def environment(seed: int, seconds: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "numelast").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "optimize": sys.flags.optimize,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "seconds": seconds,
    }


# ------------------------------------------------------------------ passes


def worker_pass(name, inputs, traced, env) -> dict:
    request = json.dumps({"workload": name, "trace": traced, "inputs": inputs})
    with tempfile.TemporaryFile(dir=OUT) as errors:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=errors, env=env, cwd=ROOT,
        )
        try:
            out, _ = proc.communicate(request.encode(), timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchmarkError(f"{name} pass did not finish in {PASS_TIMEOUT_S} s")
        if proc.returncode != 0:
            errors.seek(0)
            raise BenchmarkError(f"{name} worker failed: {errors.read().decode()[-2000:]}")
    result = json.loads(out)
    if result["optimize"] != 0:
        raise BenchmarkError("the worker ran with -O; assert-guarded work would be skipped")
    return result


def run_subcommand(args, env) -> dict:
    """stdout, wall seconds, peak RSS in MB, exit code and the machine's speed
    around one ``python -m numelast`` process, started by launch.py."""
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        report, output = Path(tmp) / "report.json", Path(tmp) / "stdout"
        with open(Path(tmp) / "stderr", "w") as errors:
            # a session of its own, so a timeout can stop the CLI process too
            proc = subprocess.Popen(
                [sys.executable, "-S", str(HERE / "launch.py"), str(report), str(output), *args],
                stdin=subprocess.DEVNULL, stdout=errors, stderr=errors, env=env, cwd=ROOT,
                start_new_session=True,
            )
            try:
                proc.wait(timeout=PASS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise BenchmarkError(f"numelast {' '.join(args)} did not finish in {PASS_TIMEOUT_S} s")
        if proc.returncode != 0 or not report.exists():
            raise BenchmarkError(f"cannot launch numelast {' '.join(args)}")
        result = json.loads(report.read_text())
        result["stdout"] = output.read_bytes()
    return result


class Checker:
    """Checks every output of the first pass; each later pass over the same
    inputs must reproduce those outputs exactly.  A pass only records its
    outputs' keys; the checks run after the timed passes, so the oracles do
    not take time from them."""

    def __init__(self, check, key=lambda output: output):
        self.check = check
        self.key = key
        self.first = None
        self.problems = None

    def record(self, outputs) -> list:
        keys = [self.key(output) for output in outputs]
        if self.first is None:
            self.first = (keys, outputs)
        return keys

    def failures(self, keys) -> list[str]:
        seen, outputs = self.first
        if self.problems is None:
            self.problems = self.check(outputs)
        return [
            problem if key == want else f"operation {i}: output changed between passes"
            for i, (key, want, problem) in enumerate(zip(keys, seen, self.problems))
            if problem or key != want
        ]


def cli_checker(wl, seed, ctx, members) -> Checker:
    def check(outputs):
        return [
            f"{' '.join(args)}: exit code {code}" if code
            else _prefixed(args, wl.cli_check(args, out, seed, rung, ctx, members))
            for rung, (args, (code, out)) in enumerate(zip(wl.CLI_LADDER, outputs))
        ]

    return Checker(check, key=lambda output: (output[0], hashlib.sha256(output[1]).hexdigest()))


def _prefixed(args, problem):
    return problem and f"{' '.join(args)}: {problem}"


def cli_pass(wl, traced, env, checker, members) -> dict:
    from tracing import Tracer

    tracer = Tracer() if traced else None
    latencies, readings, outputs, rss, extra = [], [], [], [], defaultdict(float)
    start_s, bare_s = setup_round(env)
    for rung, args in enumerate(wl.CLI_LADDER):
        root = tracer.open("client", rung) if tracer else -1
        child = tracer.open(f"cli.{args[0]}", rung) if tracer else -1
        run = run_subcommand(args, env)
        if tracer:
            tracer.close(child)
            tracer.close(root)
        out = run["stdout"]
        latencies.append(run["wall_s"])
        readings.extend(run["speed"])
        outputs.append((run["exit_code"], out))
        rss.append(run["peak_rss_mb"])
        extra[f"cli.{args[0]}.wall_s"] += run["wall_s"]
        extra[f"cli.{args[0]}.output_bytes"] += len(out)
        extra[f"cli.{args[0]}.peak_rss_mb"] = max(extra[f"cli.{args[0]}.peak_rss_mb"], run["peak_rss_mb"])
    keys = checker.record(outputs)
    del outputs
    failures = mirror_scans(wl, tracer, extra, members) if tracer else []
    # a CLI process first starts the interpreter and imports numelast, which
    # follows the speed of starting processes, as setup_s does; the rest of
    # its time follows the loops
    pass_factor = speed.factor(speed.median_pair(readings), speed.WEIGHTS["cli-stats"])
    start_nominal = start_s * speed.NOMINAL_START_S / bare_s
    scaled = [max(x - start_s, 0.0) / pass_factor + start_nominal for x in latencies]
    return pass_record(traced, scaled, latencies, keys, failures, max(rss), tracer, extra)


def mirror_scans(wl, tracer, extra, members) -> list[str]:
    """Run each stats and plot rung's range scan in-process, traced, with cold
    caches as in a fresh CLI process; the subprocesses cannot be seen into."""
    sys.path.insert(0, str(SRC))
    import numelast

    failures = []
    for rung, args in enumerate(wl.CLI_LADDER):
        if args[0] not in ("stats", "plot"):
            continue
        numelast.clear_caches()
        S = numelast.new_monoid(int(g) for g in args[1].split(","))
        lo, hi = wl.default_range(S.generators)
        tracer.op = rung
        rows = len(tracer.call("factorizations.length_stats_range", numelast.length_stats_range, S, lo, hi))
        extra["factorizations.length_stats_range.rows"] += rows
        expected = wl.members_of(members, S.generators).oracle.members_in(lo, hi)
        if rows != expected:
            failures.append(f"length_stats_range {S} [{lo}, {hi}]: {rows} rows, expected {expected}")
    numelast.clear_caches()
    return failures


def pass_record(traced, latencies, raw_latencies, keys, failures, peak_rss_mb, tracer, extra) -> dict:
    """One pass: ``latencies`` are scaled to nominal machine speed; ``keys``
    are its outputs' keys, checked after the timed passes."""
    from tracing import self_times

    record = {
        "traced": traced,
        "latencies": latencies,
        "raw_latencies": raw_latencies,
        "keys": keys,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "extra": dict(extra),
    }
    if tracer:
        record["self_times"] = self_times(tracer.spans)
        record["spans"] = tracer.spans
    return record


def inprocess_pass(name, inputs, traced, env, checker) -> dict:
    result = worker_pass(name, inputs, traced, env)
    outputs = result["outputs"]
    extra = defaultdict(float)
    if name == "profile-queries":
        for built in outputs[: len(inputs["monoids"])]:
            extra["profile.sequences"] += built.get("sequences", 0)
            extra["profile.finite_part"] += built.get("finite_part", 0)
    if name == "compare-mix":
        decided = [o for o in outputs if o.get("outcome") in ("equal", "not_equal")]
        extra["compare.decided"] = len(decided)
        extra["compare.pairs"] = len(outputs)
        extra["profile.certificate_alignments"] = sum(o.get("alignments", 0) for o in outputs)
    latencies = speed.scaled(result["latencies"], result["speed"], speed.WEIGHTS[name], speed.SENSITIVITY[name])
    record = pass_record(traced, latencies, result["latencies"], checker.record(outputs), [],
                         result["peak_rss_mb"], None, extra)
    if traced:
        record["self_times"] = {k: tuple(v) for k, v in result["self_times"].items()}
        record["spans"] = result["spans"]
    return record


def run_passes(wl, name, seed, seconds, trace, env, ctx) -> list[dict]:
    """The run's one pass, repeated until the time is up; a traced run
    alternates untraced and traced passes."""
    if name == "cli-stats":
        members: dict = {}
        checker = cli_checker(wl, seed, ctx, members)

        def one_pass(traced):
            return cli_pass(wl, traced, env, checker, members)
    else:
        make, check = {
            "point-queries": (wl.point_inputs, wl.point_check),
            "profile-queries": (wl.profile_inputs, wl.profile_check),
            "compare-mix": (wl.compare_inputs, wl.compare_check),
        }[name]
        inputs = make(seed, ctx)
        checker = Checker(lambda outputs: check(inputs, outputs, ctx))

        def one_pass(traced):
            return inprocess_pass(name, inputs, traced, env, checker)

    passes = []
    start, last = perf_counter(), 0.0
    # a new round of passes starts only if, by the last round's length, less
    # than half of it would run past the time
    while not passes or perf_counter() - start + last / 2 < seconds:
        began = perf_counter()
        for traced in (False, True) if trace else (False,):
            passes.append(one_pass(traced))
            passes[-1]["index"] = len(passes) - 1
        last = perf_counter() - began
    for p in passes:
        p["failures"] = checker.failures(p.pop("keys")) + p["failures"]
    return passes


# ----------------------------------------------------------------- metrics


def tail_percentile(ops: int) -> float:
    for pct in PERCENTILES:
        if ops * (100 - pct) / 100 >= 10:
            return pct
    return 100.0  # too few operations per pass: the maximum


def nearest_rank(count: int, pct: float) -> int:
    return max(1, math.ceil(count * pct / 100))


def percentile(values: list[float], pct: float) -> float:
    return sorted(values)[nearest_rank(len(values), pct) - 1]


def op_latencies(passes, key="latencies") -> list[float]:
    """Each operation's median time over the passes."""
    return [statistics.median(times) for times in zip(*(p[key] for p in passes))]


def end_to_end(passes, setup_s, key="latencies") -> tuple[dict, dict]:
    plain = [p for p in passes if not p["traced"]]
    times = op_latencies(plain, key)
    pct = tail_percentile(len(times))
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(times) / sum(times),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_tail_ms": percentile(times, pct) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    beyond = len(times) - nearest_rank(len(times), pct)
    notes = {
        "latency_tail_ms": f"p{pct:g} of {len(times)} operations, {beyond} beyond it; "
        f"each operation's median of {len(plain)} passes",
    }
    return values, notes


def per_layer(passes) -> tuple[dict, dict]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    n = len(traced)
    by_name: dict = defaultdict(lambda: [0, 0.0])
    extra: dict = defaultdict(float)
    for p in traced:
        for name, (calls, secs) in p["self_times"].items():
            by_name[name][0] += calls
            by_name[name][1] += secs
        for key, value in p["extra"].items():
            extra[key] = max(extra[key], value) if key.endswith("peak_rss_mb") else extra[key] + value
    values = {}
    for name in LAYER_SPANS:
        calls, secs = by_name.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls / n
        values[f"{name}.self_s"] = secs / n
    for key in COUNTS:
        values[key] = extra.get(key, 0.0) / n
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.{sub}.wall_s"] = extra.get(f"cli.{sub}.wall_s", 0.0) / n
        values[f"cli.{sub}.peak_rss_mb"] = extra.get(f"cli.{sub}.peak_rss_mb", 0.0)
        values[f"cli.{sub}.output_bytes"] = extra.get(f"cli.{sub}.output_bytes", 0.0) / n
    pairs = sum(p["extra"].get("compare.pairs", 0) for p in passes)
    decided = sum(p["extra"].get("compare.decided", 0) for p in passes)
    values["compare.decided_ratio"] = decided / pairs if pairs else 0.0

    values["trace.overhead_ratio"] = sum(op_latencies(plain)) / sum(op_latencies(traced))
    layers: dict = defaultdict(float)
    for name, (_, secs) in by_name.items():
        layers[name.split(".", 1)[0]] += secs / n
    return values, dict(layers)


def per_layer_units() -> dict:
    units = {}
    for name in LAYER_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for key in COUNTS:
        units[key] = "count"
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}.wall_s"] = "s"
        units[f"cli.{sub}.peak_rss_mb"] = "MB"
        units[f"cli.{sub}.output_bytes"] = "bytes"
    units["compare.decided_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


# -------------------------------------------------------------------- main


def run_workload(name, seed, seconds, trace, env, ctx, info) -> dict:
    import workloads as wl

    setup = None if trace else measure_setup(env)
    passes = run_passes(wl, name, seed, seconds, trace, env, ctx)
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    print(f"workload {name}: seed {seed}, {len(passes)} passes, {attempted} operations")
    if trace:
        metrics, layers = per_layer(passes)
        units = per_layer_units()
        for key, value in metrics.items():
            print(f"  {key:<44} {value:>14.6g} {units[key]}")
        ranked = sorted(layers.items(), key=lambda kv: -kv[1])
        shares = ", ".join(f"{layer} {secs:.4g} s" for layer, secs in ranked)
        print(f"  self time per pass by layer: {shares}")
        library = [kv for kv in ranked if kv[0] != "client"]
        print(f"  largest self time: {library[0][0]}" if library else "  no library spans")
        write_spans(name, seed, passes)
    else:
        metrics, notes = end_to_end(passes, setup[0])
        unscaled, _ = end_to_end(passes, setup[1], "raw_latencies")
        units = UNITS
        for key, value in metrics.items():
            print(f"  {key:<16} {value:>14.6g} {units[key]}" + (f"  ({notes[key]})" if key in notes else ""))
        print("  unscaled: " + ", ".join(f"{key} {value:.6g} {units[key]}" for key, value in unscaled.items()))
    print(f"  ops_failed_ratio {len(failures) / attempted:>14.6g}  ({len(failures)} of {attempted})")
    if name == "compare-mix" and not trace:
        pairs = sum(p["extra"]["compare.pairs"] for p in passes)
        decided = sum(p["extra"]["compare.decided"] for p in passes)
        print(f"  decided_ratio    {decided / pairs:>14.6g}  ({decided} of {pairs} pairs)")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    result = {
        "workload": name,
        "trace": trace,
        "environment": info,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:100],
        "passes": [{"index": p["index"], "traced": p["traced"], "ops": len(p["latencies"]),
                    "busy_s": sum(p["latencies"]), "peak_rss_mb": p["peak_rss_mb"]} for p in passes],
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    if not trace:
        result["unscaled_metrics"] = unscaled
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as handle:
        json.dump(result, handle, indent=1)
    return result


def write_spans(name, seed, passes) -> None:
    with open(OUT / f"{name}-seed{seed}.spans.jsonl", "w") as handle:
        for p in passes:
            for span_name, start, end, parent, op in p.get("spans", ()):
                handle.write(json.dumps({"pass": p["index"], "traced": p["traced"], "name": span_name,
                                         "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "numelast" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no numelast checkout around {HERE} (need src/numelast and tests/oracles.py)",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    import workloads as wl

    env = child_env()
    info = environment(args.seed, args.seconds)
    print("environment: " + json.dumps(info))
    ctx = wl.Context(wl.load_pairs())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), env, ctx, info) for n in names]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())

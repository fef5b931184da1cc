"""Command-line front end.

Subcommands: stats (CSV/JSON length statistics over a range), plot (SVG
scatter of elasticity or length functions), recover (step and ratio of an
arithmetic progression from its elasticity data alone), compare (equality
of two elasticity sets), profile (JSON tail decomposition), verify
(one smoke check per suite of the running copy; the full battery is the
test suite).

stats and profile stream their output, so memory does not grow with the
range or the period; plot holds 16 bytes a point, as its axes come first,
and refuses a range of more than TABLE_LIMIT integers before any work.
stats formats the text after n once per distinct (M, m) pair of each slice
of WRITE_CHUNK rows, so n is the only number converted on every row.  A
reader that closes stdout early ends them quietly.

compare prints the verdict of compare_profiles, which decides two arithmetic
progressions by the paper's theorem alone, and two monoids of differing
limits g_k/g_1 by those limits, with no length table.

Exit codes: 0 success, 1 failed verification or internal inconsistency,
2 invalid generators/arguments or length tables over the budget, 3 I/O
failure, 4 recover on a non-arithmetical monoid.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain, compress, islice
from math import gcd

from . import arithmetical as ar
from .errors import InternalInconsistency, MonoidError, TableTooLarge
from .lengths import iter_lengths
from .monoid import (
    TABLE_LIMIT, WRITE_CHUNK, NumericalMonoid, WindowTables, detect_arithmetical, max_elasticity,
    new_monoid, window_tables,
)
from .profile import T_MAX, build_profile, compare_profiles, profile_json_pieces
from .svg import scatter_svg
from .verify import SUITES, run_suites

CSV_HEADER = "n,max_len,min_len,rho_num,rho_den"


def _parse_generators(text: str) -> NumericalMonoid:
    try:
        parts = [int(piece) for piece in text.split(",") if piece.strip() != ""]
    except ValueError as exc:
        raise MonoidError(f"cannot parse generators from {text!r}") from exc
    return new_monoid(parts)


def _default_range(S: NumericalMonoid) -> tuple[int, int]:
    if len(S.generators) == 1:
        return 0, 100
    base = S.generators[-2] * S.gk
    period = S.g1 * S.gk
    return 0, base + 10 * period


def _range(args) -> tuple[NumericalMonoid, int, int]:
    """The monoid and the requested range [lo, hi]."""
    S = _parse_generators(args.generators)
    lo, hi = _default_range(S)
    return S, lo if args.start is None else args.start, hi if args.stop is None else args.stop


def _write_output(pieces: Iterable[str], path: str | None) -> int:
    """Write the text ``pieces`` to ``path`` (stdout for None or "-").

    Each piece is written as it comes, so a streamed output is never held
    whole.  A reader that closes stdout early (``| head``) ends the output
    quietly with exit 0.
    """
    try:
        if path is None or path == "-":
            try:
                sys.stdout.writelines(pieces)
                sys.stdout.flush()
            except BrokenPipeError:
                # send what is still buffered to devnull, so the interpreter's
                # final flush of stdout has no closed pipe to fail on
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
        else:
            with open(path, "w", newline="") as handle:
                handle.writelines(pieces)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0


def _joined(pieces: Iterator[str]) -> Iterator[str]:
    """Row-sized ``pieces``, none empty, joined WRITE_CHUNK at a time: an
    unbuffered stdout (``python -u``) makes one write call per piece."""
    return iter(lambda: "".join(islice(pieces, WRITE_CHUNK)), "")


def _stats_slices(tables: WindowTables, lo: int, hi: int, head: str, tail: str) -> Iterator[str]:
    """The rows of [lo, hi] as one string per slice of at most WRITE_CHUNK
    rows.  A row is ``head``, n and ``tail % (M, m, p, q)``, p/q being M/m
    reduced (1/1 at n = 0).  The tail is formatted once per distinct (M, m)
    of a slice, so n is the only number converted on every row; the gaps,
    whose pair is (-1, -1), have no row."""
    for start, max_col, min_col in tables.columns(lo, hi):
        for a in range(0, len(max_col), WRITE_CHUNK):
            bigs, smalls = max_col[a:a + WRITE_CHUNK], min_col[a:a + WRITE_CHUNK]
            ns = range(start + a, start + a + len(bigs))
            texts = dict.fromkeys(zip(bigs, smalls))
            if (-1, -1) in texts:
                del texts[-1, -1]
                kept = [small >= 0 for small in smalls]
                ns = list(compress(ns, kept))
                bigs, smalls = compress(bigs, kept), compress(smalls, kept)
            for big, small in texts:
                d = gcd(big, small)  # 0 only at n = 0
                texts[big, small] = tail % ((big, small, big // d, small // d) if d else (0, 0, 1, 1))
            pieces = [head] * (3 * len(ns))
            pieces[1::3] = map(str, ns)
            pieces[2::3] = map(texts.__getitem__, zip(bigs, smalls))
            yield "".join(pieces)


def cmd_stats(args) -> int:
    S, lo, hi = _range(args)
    tables = window_tables(S.generators)  # over the budget: exit 2 before any write
    if args.format == "csv":
        pieces = chain((CSV_HEADER,), _stats_slices(tables, lo, hi, "\n", ",%d,%d,%d,%d"), ("\n",))
    else:
        # rows joined by commas, as json.dumps(rows, separators=(",", ":")):
        # each row opens with one, cut from the first
        slices = filter(None, _stats_slices(
            tables, lo, hi, ',{"n":', ',"max_len":%d,"min_len":%d,"rho_num":%d,"rho_den":%d}'
        ))
        pieces = chain(("[", next(slices, ",")[1:]), slices, ("]\n",))
    return _write_output(pieces, args.output)


def cmd_plot(args) -> int:
    S, lo, hi = _range(args)
    if (count := hi - max(lo, 0) + 1) > TABLE_LIMIT:
        raise TableTooLarge(f"a plot of {count} integers exceeds the limit {TABLE_LIMIT}")
    lengths = iter_lengths(S, lo, hi)
    if args.kind == "rho":
        points = ((n, big / small if n else 1.0) for n, big, small in lengths)
    elif args.kind == "maxlen":
        points = ((n, big) for n, big, _ in lengths)
    else:
        points = ((n, small) for n, _, small in lengths)
    return _write_output(_joined(scatter_svg(points, title=f"{S} {args.kind}")), args.output)


def cmd_recover(args) -> int:
    S = _parse_generators(args.generators)
    params = detect_arithmetical(S)
    if params is None:
        print(f"error: {S} is not arithmetical", file=sys.stderr)
        return 4
    _, f, g = ar.three_minimal_elasticities(params)
    step = ar.recover_d(f, g)
    sup = max_elasticity(S)
    ratio = ar.recover_a_over_k(sup, step)
    print(f"d={step} a/k={ratio.numerator}/{ratio.denominator} "
          f"sup={sup.numerator}/{sup.denominator}")
    if step != params.d or ratio != Fraction(params.a, params.k):
        print("error: recovered values disagree with the generators", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args) -> int:
    """Print the compare_profiles verdict; a "theorem" one gets an arithmetical: line."""
    S1, S2 = _parse_generators(args.gens1), _parse_generators(args.gens2)
    verdict = compare_profiles(S1, S2, args.tmax)
    if verdict.outcome == "equal":
        print("EQUAL")
    elif verdict.outcome == "not_equal":
        print("NOT_EQUAL witness=%d/%d" % verdict.witness.as_integer_ratio())
    else:
        print(f"UNKNOWN bound={args.tmax}")
    if verdict.reason == "theorem":
        print("arithmetical: " + verdict.outcome.upper())
    return 0


def cmd_profile(args) -> int:
    profile = build_profile(_parse_generators(args.generators))
    return _write_output(_joined(chain(profile_json_pieces(profile), ("\n",))), args.output)


def cmd_verify(args) -> int:
    names = tuple(SUITES) if args.suite == "all" else (args.suite,)
    return 0 if run_suites(names) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numelast",
        description="Factorization-length invariants and elasticity sets "
        "of numerical monoids (exact arithmetic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="length statistics over a range, as CSV or JSON")
    p.add_argument("generators", help="comma-separated generators, e.g. 3,5,7")
    p.add_argument("--from", dest="start", type=int, default=None)
    p.add_argument("--to", dest="stop", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("plot", help="SVG scatter of rho, M or m over a range")
    p.add_argument("generators")
    p.add_argument("--kind", choices=("rho", "maxlen", "minlen"), default="rho")
    p.add_argument("--from", dest="start", type=int, default=None)
    p.add_argument("--to", dest="stop", type=int, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("recover", help="recover d, a/k and sup from elasticity data")
    p.add_argument("generators")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("compare", help="decide equality of two elasticity sets")
    p.add_argument("gens1")
    p.add_argument("gens2")
    p.add_argument("--tmax", type=int, default=T_MAX, help="tail steps cross-checked; "
                   "only a pair that is not two arithmetic progressions has any")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("profile", help="emit the JSON tail decomposition")
    p.add_argument("generators")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("verify", help="run the runtime self-check suites")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInconsistency as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MonoidError as exc:  # bad or too large input; raised before the first write
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end.

Subcommands: stats (CSV/JSON length statistics over a range), plot (SVG
scatter of elasticity or length functions), recover (step and ratio of an
arithmetic progression from its elasticity data alone), compare (equality
of two elasticity sets), profile (JSON tail decomposition), verify
(runtime self-check suites).

Exit codes: 0 success, 1 failed verification or internal inconsistency,
2 invalid generators/arguments or length tables over the budget, 3 I/O
failure, 4 recover on a non-arithmetical monoid.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import gcd

from . import arithmetical as ar
from .errors import InternalInconsistency, MonoidError
from .lengths import length_stats_range
from .monoid import NumericalMonoid, detect_arithmetical, max_elasticity, new_monoid
from .profile import build_profile, compare_built_profiles, contains_elasticity, profile_to_json
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


def _write_output(text: str, path: str | None) -> int:
    try:
        if path is None or path == "-":
            sys.stdout.write(text)
        else:
            with open(path, "w", newline="") as handle:
                handle.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_stats(args) -> int:
    S = _parse_generators(args.generators)
    lo = args.start if args.start is not None else _default_range(S)[0]
    hi = args.stop if args.stop is not None else _default_range(S)[1]
    stats = length_stats_range(S, lo, hi)
    if args.format == "csv":
        lines = [CSV_HEADER]
        lines.extend(
            f"{st.n},{st.max_len},{st.min_len},"
            f"{st.elasticity.numerator},{st.elasticity.denominator}"
            for st in stats
        )
        text = "\n".join(lines) + "\n"
    else:
        rows = [
            {
                "n": st.n,
                "max_len": st.max_len,
                "min_len": st.min_len,
                "rho_num": st.elasticity.numerator,
                "rho_den": st.elasticity.denominator,
            }
            for st in stats
        ]
        text = json.dumps(rows, separators=(",", ":")) + "\n"
    return _write_output(text, args.output)


def cmd_plot(args) -> int:
    S = _parse_generators(args.generators)
    lo = args.start if args.start is not None else 0
    hi = args.stop if args.stop is not None else _default_range(S)[1]
    stats = length_stats_range(S, lo, hi)
    if args.kind == "rho":
        points = [(st.n, st.elasticity) for st in stats]
    elif args.kind == "maxlen":
        points = [(st.n, st.max_len) for st in stats]
    else:
        points = [(st.n, st.min_len) for st in stats]
    text = scatter_svg(points, title=f"{S} {args.kind}")
    return _write_output(text, args.output)


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


def _arithmetical_witness(p1, p2):
    """Witness for two arithmetic progressions with unequal value sets."""
    s1 = p1.step_bound()
    s2 = p2.step_bound()
    if s1 != s2:
        return max(s1, s2)
    trio1 = ar.three_minimal_elasticities(p1)
    trio2 = ar.three_minimal_elasticities(p2)
    if trio1 != trio2:
        for v1, v2 in zip(trio1[1:], trio2[1:]):
            if v1 != v2:
                return min(v1, v2)
    # same d and a/k: exactly one side has gcd(a, k) >= 2 and carries extras
    side = p1 if gcd(p1.a, p1.k) >= 2 else p2
    return ar.tuple_elasticity(side, ar.maximal_coprime_tuple(side))


def cmd_compare(args) -> int:
    S1 = _parse_generators(args.gens1)
    S2 = _parse_generators(args.gens2)
    if len(S1.generators) == 1 or len(S2.generators) == 1:
        print("error: comparison needs at least two generators", file=sys.stderr)
        return 2
    prof1 = build_profile(S1)
    prof2 = build_profile(S2)
    verdict = compare_built_profiles(prof1, prof2, args.tmax)
    p1 = detect_arithmetical(S1)
    p2 = detect_arithmetical(S2)
    if p1 is not None and p2 is not None:
        equal = ar.elasticity_sets_equal_arithmetical(p1, p2)
        if verdict.outcome != "unknown" and (verdict.outcome == "equal") != equal:
            print("error: profile and arithmetical verdicts disagree", file=sys.stderr)
            return 1
        if equal:
            print("EQUAL")
        else:
            witness = _arithmetical_witness(p1, p2)
            if contains_elasticity(prof1, witness)[0] == contains_elasticity(prof2, witness)[0]:
                print("error: witness fails the membership check", file=sys.stderr)
                return 1
            print(f"NOT_EQUAL witness={witness.numerator}/{witness.denominator}")
        print(f"arithmetical: {'EQUAL' if equal else 'NOT_EQUAL'}")
        return 0
    if verdict.outcome == "equal":
        print("EQUAL")
    elif verdict.outcome == "not_equal":
        w = verdict.witness
        print(f"NOT_EQUAL witness={w.numerator}/{w.denominator}")
    else:
        print(f"UNKNOWN bound={verdict.checked_bound}")
    return 0


def cmd_profile(args) -> int:
    profile = build_profile(_parse_generators(args.generators))
    return _write_output(profile_to_json(profile) + "\n", args.output)


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
    p.add_argument("--tmax", type=int, default=50)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("profile", help="emit the JSON tail decomposition")
    p.add_argument("generators")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("verify", help="run the runtime self-check suites")
    p.add_argument("--suite", choices=("core", "arith", "profile", "all"), default="all")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInconsistency as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MonoidError as exc:  # bad or too large input; commands write only at the end
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

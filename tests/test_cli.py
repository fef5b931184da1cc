import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest

import numelast
from numelast.cli import WRITE_CHUNK, main
from numelast.lengths import length_stats_range
from numelast.monoid import WindowTables

from profile_helpers import replaced, widen_columns, wrap_columns

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_csv_golden(capsys):
    code, out, _ = run(capsys, "stats", "3,5,7", "--from", "0", "--to", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,max_len,min_len,rho_num,rho_den"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [0, 3, 5, 6, 7, 8, 9, 10]
    assert lines[-1] == "10,2,2,1,1"


def test_stats_empty_range(capsys):
    code, out, _ = run(capsys, "stats", "3,5,7", "--from", "4", "--to", "4")
    assert code == 0
    assert out == "n,max_len,min_len,rho_num,rho_den\n"


def test_stats_single_row(capsys):
    code, out, _ = run(capsys, "stats", "7,12,17,22", "--from", "66", "--to", "66")
    assert code == 0
    assert out.splitlines()[1] == "66,8,3,8,3"


def test_stats_json(capsys):
    code, out, _ = run(capsys, "stats", "3,5,7", "--from", "0", "--to", "10",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[-1] == {"n": 10, "max_len": 2, "min_len": 2, "rho_num": 1, "rho_den": 1}


def test_stats_invalid_generators(capsys):
    code, _, err = run(capsys, "stats", "4,6")
    assert code == 2
    assert "error" in err
    code, out, err = run(capsys, "stats", "3,x")
    assert code == 2 and out == "" and "cannot parse" in err


def test_stats_outputs_are_integral_and_reduced(capsys):
    from math import gcd

    _, out, _ = run(capsys, "stats", "6,10,13,14", "--to", "300")
    for line in out.splitlines()[1:]:
        fields = line.split(",")
        assert len(fields) == 5
        values = [int(f) for f in fields]  # no floating point anywhere
        assert gcd(values[3], values[4]) == 1


def test_stats_default_range_covers_ten_periods(capsys):
    _, out, _ = run(capsys, "stats", "3,5")
    rows = out.splitlines()[1:]
    assert rows[-1].startswith("165,")  # base 15 plus ten periods of 15


def test_stats_io_failure(tmp_path, capsys):
    code, _, err = run(capsys, "stats", "3,5", "--to", "10",
                       "--output", str(tmp_path))  # a directory, not a file
    assert code == 3
    assert "cannot write" in err


def test_stats_file_output_deterministic(tmp_path, capsys):
    target = tmp_path / "stats.csv"
    run(capsys, "stats", "3,5,7", "--to", "40", "--output", str(target))
    first = target.read_bytes()
    run(capsys, "stats", "3,5,7", "--to", "40", "--output", str(target))
    assert target.read_bytes() == first
    assert first.decode().splitlines()[0] == "n,max_len,min_len,rho_num,rho_den"


def test_plot_svg_structure(capsys):
    code, out, _ = run(capsys, "plot", "3,5,7", "--kind", "rho", "--to", "40")
    assert code == 0
    assert out.startswith('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 600">')
    members = [n for n in range(41) if n == 0 or numelast.contains(numelast.new_monoid([3, 5, 7]), n)]
    assert out.count("<circle") == len(members)
    assert 'r="2"' in out


def test_plot_deterministic(capsys):
    _, first, _ = run(capsys, "plot", "7,12,17,22", "--kind", "rho", "--to", "300")
    _, second, _ = run(capsys, "plot", "7,12,17,22", "--kind", "rho", "--to", "300")
    assert first == second


def test_plot_maxlen_minlen(capsys):
    for kind in ("maxlen", "minlen"):
        code, out, _ = run(capsys, "plot", "5,16,17,18,19", "--kind", kind, "--to", "200")
        assert code == 0
        assert out.count("<circle") > 0


def test_plot_trivial_monoid_flat(capsys):
    code, out, _ = run(capsys, "plot", "1", "--kind", "rho", "--to", "10")
    assert code == 0
    heights = {
        line.split('cy="')[1].split('"')[0]
        for line in out.splitlines()
        if "<circle" in line
    }
    assert len(heights) == 1  # every point at elasticity 1


def test_plot_refuses_a_range_over_the_table_limit(capsys, tmp_path):
    # 10**7 + 1 points would take 16 bytes each before the first write:
    # refused as too large (exit 2) before any table is built or file opened
    numelast.monoid.window_tables.cache_clear()
    args = ("plot", "3,5", "--from", "0", "--to", "10000000")
    code, out, err = run(capsys, *args)
    assert code == 2 and out == "" and "10000001 integers" in err
    target = tmp_path / "plot.svg"
    code, out, _ = run(capsys, *args, "--output", str(target))
    assert code == 2 and out == "" and not target.exists()
    assert numelast.monoid.window_tables.cache_info().currsize == 0


def test_recover_examples(capsys, monkeypatch):
    code, out, _ = run(capsys, "recover", "7,12,17,22")
    assert code == 0 and out == "d=5 a/k=7/3 sup=22/7\n"
    code, out, _ = run(capsys, "recover", "3,5")
    assert code == 0 and out == "d=2 a/k=3/1 sup=5/3\n"
    # a recovered step that disagrees with the generators is a library
    # fault: the recovered line is still printed, then exit 1
    recover_d = numelast.arithmetical.recover_d
    monkeypatch.setattr(numelast.arithmetical, "recover_d", lambda f, g: recover_d(f, g) + 1)
    code, out, err = run(capsys, "recover", "7,12,17,22")
    assert code == 1 and out.startswith("d=6 a/k=")
    assert "recovered values disagree with the generators" in err


def test_recover_not_arithmetical(capsys):
    code, _, err = run(capsys, "recover", "20,21,45")
    assert code == 4
    assert "not arithmetical" in err


def test_compare_equal_fixture(capsys):
    code, out, _ = run(capsys, "compare", "6,10,13,14", "6,11,13,14")
    assert code == 0
    assert out.splitlines()[0] == "EQUAL"


def test_compare_not_equal_with_constructed_witness(capsys):
    code, out, _ = run(capsys, "compare", "14,17,20,23,26,29,32", "7,10,13,16")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "NOT_EQUAL witness=86/39"
    assert lines[1] == "arithmetical: NOT_EQUAL"


def test_compare_identical(capsys):
    code, out, _ = run(capsys, "compare", "3,5", "3,5")
    assert code == 0
    assert out.splitlines()[0] == "EQUAL"


def test_compare_one_generator(capsys):
    # R(<1>) = {1}, decided by the limits alone
    code, out, _ = run(capsys, "compare", "1", "1")
    assert code == 0 and out == "EQUAL\n"


def test_compare_sup_mismatch(capsys):
    code, out, _ = run(capsys, "compare", "3,5", "3,7")
    assert code == 0
    assert out.splitlines()[0] == "NOT_EQUAL witness=7/3"


def test_compare_invalid(capsys):
    code, _, err = run(capsys, "compare", "4,6", "3,5")
    assert code == 2 and "error" in err
    # a negative bound is refused for every pair, two progressions and two
    # copies of <1> included
    for pair in (("6,10,13,14", "6,11,13,14"), ("3,5", "3,5"), ("1", "1")):
        code, out, err = run(capsys, "compare", *pair, "--tmax", "-1")
        assert code == 2 and out == "" and "nonnegative" in err
    # a bound no pair can meet is refused before any table is built
    code, out, err = run(capsys, "compare", "6,10,13,14", "6,10,13,14", "--tmax", str(10**18))
    assert code == 2 and out == "" and "error" in err


def test_readme_cli_examples(capsys):
    # each recover and compare line of README's CLI block prints its comment first
    block = README.read_text().split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    examples = [
        line.split("#", 1) for line in block.splitlines()
        if line.startswith(("numelast recover ", "numelast compare "))
    ]
    assert len(examples) == 4
    for command, comment in examples:
        code, out, _ = run(capsys, *command.split()[1:])
        assert code == 0 and out.splitlines()[0] == comment.strip(), command


@pytest.mark.parametrize("gens1, gens2, lines", [
    ("5,7,9,11", "5,8,9,11", ["NOT_EQUAL witness=7/5"]),  # not arithmetical
    ("4,5,6", "8,9,11,12", ["UNKNOWN bound=50"]),
    # both sides have sup 5/3, so the witness comes from the smallest values
    ("3,5", "6,7,8,9,10", ["NOT_EQUAL witness=6/5", "arithmetical: NOT_EQUAL"]),
    # found among the smallest values of the first side, before any alignment
    ("211,307,401", "211,308,401", ["NOT_EQUAL witness=57/53"]),
])
def test_compare_output_lines(capsys, gens1, gens2, lines):
    code, out, _ = run(capsys, "compare", gens1, gens2)
    assert code == 0
    assert out.splitlines() == lines


def test_profile_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, "profile", "3,5")
    assert code == 0
    doc = json.loads(out)
    assert doc["base"] == 15 and doc["period"] == 15
    assert len(doc["sequences"]) == 15
    # streamed in pieces, to stdout or a file, it is the library's document
    target = tmp_path / "profile.json"
    for gens in ("3,5", "101,157,203"):
        S = numelast.new_monoid(map(int, gens.split(",")))
        expected = numelast.profile_to_json(numelast.build_profile(S)) + "\n"
        assert run(capsys, "profile", gens) == (0, expected, "")
        assert run(capsys, "profile", gens, "--output", str(target)) == (0, "", "")
        assert target.read_text() == expected


# Wrong fills of one table pass of WindowTables: (sign of the pass, change
# to its breakpoints).  They are an empty class mod g_1, an empty class mod
# g_k, and an Apery element at the window's last entry.
WRONG_FILLS = [
    (-1, lambda breaks, limit: breaks[-1].clear()),
    (1, lambda breaks, limit: breaks[-1].clear()),
    (-1, lambda breaks, limit: breaks.__setitem__(limit % len(breaks), [(limit, 0)])),
]


def test_profile_internal_inconsistency_exits_1(capsys, monkeypatch):
    # a broken window invariant is a library fault (exit 1), not bad input
    # (2): each wrong fill fails the window check of WindowTables.  A table
    # pass is told from new_monoid's by a limit above its largest part.
    passes = numelast.monoid._breakpoints
    for wrong_sign, wrong in WRONG_FILLS:

        def breakpoints(mod, parts, limit, sign, wrong_sign=wrong_sign, wrong=wrong):
            breaks = passes(mod, parts, limit, sign)
            if sign == wrong_sign and parts and limit > parts[-1]:
                wrong(breaks, limit)
            return breaks

        monkeypatch.setattr(numelast.monoid, "_breakpoints", breakpoints)
        numelast.monoid.window_tables.cache_clear()
        code, out, err = run(capsys, "profile", "3,5")
        assert code == 1 and out == "" and "error" in err
        assert "membership gap inside the window" in err
        code, _, _ = run(capsys, "profile", "1")
        assert code == 2  # <1> has no tails: still an input error


def test_profile_refuses_int64_columns_exits_1(capsys, monkeypatch):
    # a length column of any type but array('i') breaks the exactness of
    # the pair code: a library fault (exit 1), not bad input
    widen_columns(monkeypatch, lambda column: array("q", column))
    code, out, err = run(capsys, "profile", "3,5")
    assert code == 1 and out == "" and "error" in err
    assert "not array('i')" in err


VERIFY_LINES = {
    "core": ["PASS core.length_tables_match_enumeration"],
    "arith": ["PASS arith.embedding_preserves_values"],
    "profile": ["PASS profile.profile_decomposition"],
}
VERIFY_LINES["all"] = [line for lines in VERIFY_LINES.values() for line in lines]


@pytest.mark.parametrize("suite", ["core", "arith", "profile", "all"])
def test_verify_core_suite(capsys, suite):
    code, out, _ = run(capsys, "verify", "--suite", suite)
    assert code == 0
    assert out.splitlines() == VERIFY_LINES[suite]


def test_verify_profile_suite_scans_across_a_chunk_seam(capsys, monkeypatch):
    # an installed copy must check the pair codes of a multi-chunk scan
    chunks = []

    def counted(columns, lo, hi):
        chunks.append(sum(1 for _ in columns(lo, hi)))
        return columns(lo, hi)

    wrap_columns(monkeypatch, counted)
    assert run(capsys, "verify", "--suite", "profile")[:2] == (0, "PASS profile.profile_decomposition\n")
    assert max(chunks) >= 2


def test_verify_all_under_optimize_flag():
    # the checks decide with if, not assert, so -O prints the same lines
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "numelast", "verify", "--suite", "all"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == VERIFY_LINES["all"]


def test_verify_negative_control(capsys, monkeypatch):
    # corrupt one breakpoint that length queries read, raising M by one on
    # the first ramp of the class of 20 mod g_1: the core suite must notice
    # and exit nonzero
    @functools.cache
    def corrupted(generators):
        t = WindowTables(generators)
        ramps = t.max_breaks[20 % t.g1]
        s, c = ramps[0]
        ramps[0] = s, c + t.g1
        return t

    monkeypatch.setattr(numelast.lengths, "window_tables", corrupted)
    code = main(["verify", "--suite", "core"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL core.length_tables_match_enumeration" in out

    # a check that raises fails its suite with the exception named
    def raising():
        raise ZeroDivisionError("broken check")

    monkeypatch.setitem(numelast.verify.SUITES, "core", ("raising_check", raising))
    code = main(["verify", "--suite", "core"])
    out = capsys.readouterr().out
    assert code == 1
    assert out == "FAIL core.raising_check (ZeroDivisionError: broken check)\n"


def test_verify_profile_negative_control(capsys, monkeypatch):
    # empty the tail line index: tail values past the finite part are no
    # longer found, and the profile suite must notice and exit nonzero
    build = numelast.profile.build_profile
    monkeypatch.setattr(numelast.profile, "build_profile", lambda S: replaced(build(S), lines={}))
    code = main(["verify", "--suite", "profile"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL profile.profile_decomposition" in out


def test_verify_arith_fails_under_optimize_flag():
    # under python -O the library's own asserts are gone, so the check itself
    # must notice an embedding that changes the value
    code = (
        "import sys\n"
        "import numelast.arithmetical as ar\n"
        "from numelast.cli import main\n"
        "def wrong(p_from, p_to, t):\n"
        "    if ar.tuple_elasticity(p_from, t) == 1:\n"
        "        return ar.ElasticityTuple(1, 0, 0)\n"
        "    return ar.ElasticityTuple(0, 0, 0)\n"
        "ar.phi_embed = wrong\n"
        "sys.exit(main(['verify', '--suite', 'arith']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "FAIL arith.embedding_preserves_values" in done.stdout.splitlines()


def test_table_budget_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "stats", "9973,10007")
    assert code == 2 and out == "" and "error" in err
    # not two progressions and the same limit, so compare builds both
    # profiles' tables
    code, out, err = run(capsys, "compare", "9973,10007,10009", "9973,10008,10009")
    assert code == 2 and out == "" and "error" in err
    # the streaming commands build their tables before the first write
    code, out, err = run(capsys, "plot", "9973,10007")
    assert code == 2 and out == "" and "error" in err
    target = tmp_path / "x.json"
    code, out, err = run(capsys, "stats", "9973,10007", "--format", "json",
                         "--output", str(target))
    assert code == 2 and out == "" and "error" in err
    assert not target.exists()


@pytest.mark.parametrize("gens1, gens2, lines", [
    ("9973,10007", "9973,10007", ["EQUAL", "arithmetical: EQUAL"]),
    ("9973,10007", "3,5", ["NOT_EQUAL witness=5/3", "arithmetical: NOT_EQUAL"]),
    # d = 1 and a/k = 3000 on both sides, gcd(a, k) >= 2 on both
    ("6000,6001,6002", "9000,9001,9002,9003", ["EQUAL", "arithmetical: EQUAL"]),
    # not two progressions, but the limits g_k/g_1 differ
    ("9973,10007,10009", "3,5,7", ["NOT_EQUAL witness=7/3"]),
    ("1", "3,5", ["NOT_EQUAL witness=5/3"]),  # <1> has no tails
])
def test_compare_progressions_build_no_table(capsys, gens1, gens2, lines):
    # tables this size are over the budget; the theorem and differing
    # limits need none
    numelast.clear_caches()
    code, out, _ = run(capsys, "compare", gens1, gens2)
    assert code == 0
    assert out.splitlines() == lines
    assert numelast.window_tables.cache_info().currsize == 0


def _reference_svg(points, *, title=""):
    """The SVG renderer as it was before output streamed: one string."""
    pts = [(int(x), float(y)) for x, y in points]
    if pts:
        x_lo = min(x for x, _ in pts)
        x_hi = max(x for x, _ in pts)
        y_lo = min(y for _, y in pts)
        y_hi = max(y for _, y in pts)
    else:
        x_lo, x_hi, y_lo, y_hi = 0, 1, 0.0, 1.0
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1, x_hi + 1
    if y_lo == y_hi:  # one float step where half a unit rounds away
        pad = max(0.5, math.ulp(y_lo))
        y_lo, y_hi = y_lo - pad, y_hi + pad

    def fmt(value):
        return f"{value:.2f}"

    def sx(x):
        return fmt(60 + (x - x_lo) / (x_hi - x_lo) * 680)

    def sy(y):
        return fmt(600 - 60 - (y - y_lo) / (y_hi - y_lo) * 480)

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 600">',
        '<rect x="0" y="0" width="800" height="600" fill="white"/>',
        '<line x1="60" y1="540" x2="740" y2="540" stroke="black" stroke-width="1"/>',
        '<line x1="60" y1="60" x2="60" y2="540" stroke="black" stroke-width="1"/>',
    ]
    if title:
        lines.append('<text x="400" y="30" text-anchor="middle" '
                     f'font-family="monospace" font-size="14">{title}</text>')
    lines.append(f'<text x="60" y="560" font-family="monospace" font-size="11">{x_lo}</text>')
    lines.append('<text x="740" y="560" text-anchor="end" '
                 f'font-family="monospace" font-size="11">{x_hi}</text>')
    lines.append('<text x="52" y="540" text-anchor="end" '
                 f'font-family="monospace" font-size="11">{fmt(y_lo)}</text>')
    lines.append('<text x="52" y="64" text-anchor="end" '
                 f'font-family="monospace" font-size="11">{fmt(y_hi)}</text>')
    for x, y in pts:
        lines.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="2" fill="steelblue"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _reference_output(gens, lo, hi, output):
    """What stats/plot printed before streaming: every LengthStats, then one string."""
    S = numelast.new_monoid(gens)
    stats = length_stats_range(S, lo, hi)
    if output == "csv":
        lines = ["n,max_len,min_len,rho_num,rho_den"]
        lines.extend(f"{st.n},{st.max_len},{st.min_len},"
                     f"{st.elasticity.numerator},{st.elasticity.denominator}" for st in stats)
        return "\n".join(lines) + "\n"
    if output == "json":
        rows = [{"n": st.n, "max_len": st.max_len, "min_len": st.min_len,
                 "rho_num": st.elasticity.numerator, "rho_den": st.elasticity.denominator}
                for st in stats]
        return json.dumps(rows, separators=(",", ":")) + "\n"
    y = {"rho": lambda st: st.elasticity, "maxlen": lambda st: st.max_len,
         "minlen": lambda st: st.min_len}[output]
    return _reference_svg([(st.n, y(st)) for st in stats], title=f"{S} {output}")


@pytest.mark.parametrize("gens", [(1,), (3, 5), (6, 10, 13, 14), (7, 12, 17, 22)])
@pytest.mark.parametrize("span", ["default", "negative", "empty", "past_window", "long", "single"])
def test_streamed_output_matches_reference(gens, span, tmp_path, capsys):
    default_hi = 100 if len(gens) == 1 else gens[-2] * gens[-1] + 10 * gens[0] * gens[-1]
    lo, hi = {
        "default": (0, default_hi),
        "negative": (-4, 30),
        "empty": (5, 4),
        "past_window": (2000, 2100),  # past (g_k - 1) g_{k-1} for every monoid here
        "long": (0, WRITE_CHUNK + 100),  # rows across a chunk boundary
        "single": (0, 0),  # one point: both axes widen around it
    }[span]
    bounds = [] if span == "default" else ["--from", str(lo), "--to", str(hi)]
    text = ",".join(map(str, gens))
    target = tmp_path / "out"
    for output in ("csv", "json", "rho", "maxlen", "minlen"):
        if output in ("csv", "json"):
            args = ["stats", text, *bounds, "--format", output]
        else:
            args = ["plot", text, *bounds, "--kind", output]
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert out == _reference_output(gens, lo, hi, output), args
        assert run(capsys, *args, "--output", str(target))[0] == 0
        assert target.read_bytes() == out.encode(), args


def test_plot_past_int64_matches_reference(capsys):
    # each x past 2**63 is held as its offset from the first point's; every
    # M here is one float near 3.3e18 and every m one near 2e18, where
    # widening the y axis by half a unit rounds back to a zero span
    lo, hi = 10**19, 10**19 + 5
    for kind in ("rho", "maxlen", "minlen"):
        code, out, _ = run(capsys, "plot", "3,5", "--from", str(lo), "--to", str(hi), "--kind", kind)
        assert code == 0
        assert out == _reference_output((3, 5), lo, hi, kind)
        assert f">{lo}</text>" in out and f">{hi}</text>" in out
        # one y value sits mid-axis, as a small one does
        assert kind == "rho" or out.count('cy="300.00"') == 6


@pytest.mark.parametrize("gens, lo, hi", [
    # every n past 2**63: the length columns are array('q') at 10**19, and
    # lists of ints at 10**20, where every M and m is past 2**63 too
    ((3, 5), 10**19, 10**19 + 5),
    ((3, 5), 10**20, 10**20 + 5),
    # F = 9,599: gaps in three 4,096-row slices, across the 6,464-entry
    # column chunk seam
    ((97, 101), 0, 12000),
], ids=["past_int64", "past_int64_lengths", "gaps_across_seams"])
def test_stats_matches_reference(gens, lo, hi, tmp_path, capsys):
    target = tmp_path / "out"
    for output in ("csv", "json"):
        args = ["stats", ",".join(map(str, gens)), "--from", str(lo), "--to", str(hi),
                "--format", output]
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert out == _reference_output(gens, lo, hi, output), args
        assert run(capsys, *args, "--output", str(target))[0] == 0
        assert target.read_bytes() == out.encode(), args


@pytest.mark.parametrize("args, digest", [
    (["7,12,17,22"], "0efd744839ab39b3428d16285067c4891507e90f7ad6146a51ded23818049b67"),
    (["31,57,73,101"], "5c3928579e3761b2bf92325039dc8e1ded87cee6fd55e30f97a79a6464c22e3a"),
    (["31,57,73,101", "--format", "json"],
     "1b29958e90749c87a8cc9ed653b8caf715a3fa5dcbf3e44c98a2862b94d75dad"),
    (["101,157,203"], "1c8af250033927524b286d849594a0eeae029a0b4f3e071e447456576d97a970"),
])
def test_stats_default_ranges_are_pinned(capsys, args, digest):
    # the benchmark's stats commands, byte for byte over their whole output
    code, out, _ = run(capsys, "stats", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_closed_stdout_exits_0():
    # a reader that leaves early, like ``| head -c 10``, ends the output quietly
    env = dict(os.environ, PYTHONPATH=str(SRC))
    commands = (
        ["stats", "101,157,203"],
        ["stats", "101,157,203", "--format", "json"],
        ["plot", "101,157,203"],
        ["profile", "101,157,203"],
    )
    procs = [
        subprocess.Popen([sys.executable, "-m", "numelast", *args], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for args in commands
    ]
    try:
        for args, proc in zip(commands, procs):
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
            assert (proc.returncode, err) == (0, b""), args
    finally:
        for proc in procs:
            proc.kill()  # no-op for a process already waited for
            proc.wait(timeout=60)


class CountedWrites(io.StringIO):
    """A stdout that counts write calls, as ``python -u`` makes a system
    call of each."""

    calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


@pytest.mark.parametrize("args", [
    ["stats", "101,157,203"],
    ["stats", "31,57,73,101", "--format", "json"],
    ["plot", "31,57,73,101"],
    ["profile", "101,157,203"],
])
def test_output_is_written_in_chunks(monkeypatch, args):
    # rows reach the writer joined by the thousand, not one write call each
    out = CountedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(args) == 0
    assert len(out.getvalue()) >= WRITE_CHUNK * out.calls, out.calls


def test_stats_memory_does_not_grow_with_range(tmp_path):
    # the smaller range already fills one chunk; the larger one has 3x the rows
    rows = WRITE_CHUNK + 400
    target = str(tmp_path / "out")

    def peak(fmt, hi):
        tracemalloc.start()
        try:
            assert main(["stats", "3,5", "--to", str(hi), "--format", fmt,
                         "--output", target]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for fmt in ("csv", "json"):
        peak(fmt, 10)  # first-call set-up (parser, caches) is not a row cost
        small, large = peak(fmt, rows), peak(fmt, 3 * rows)
        assert large <= 1.25 * small, (fmt, small, large)

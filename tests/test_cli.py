import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numelast
from numelast.cli import main
from numelast.monoid import WindowTables


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


def test_recover_examples(capsys):
    code, out, _ = run(capsys, "recover", "7,12,17,22")
    assert code == 0 and out == "d=5 a/k=7/3 sup=22/7\n"
    code, out, _ = run(capsys, "recover", "3,5")
    assert code == 0 and out == "d=2 a/k=3/1 sup=5/3\n"


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


def test_compare_sup_mismatch(capsys):
    code, out, _ = run(capsys, "compare", "3,5", "3,7")
    assert code == 0
    assert out.splitlines()[0] == "NOT_EQUAL witness=7/3"


def test_compare_invalid(capsys):
    code, _, err = run(capsys, "compare", "4,6", "3,5")
    assert code == 2 and "error" in err


def test_profile_subcommand(capsys):
    code, out, _ = run(capsys, "profile", "3,5")
    assert code == 0
    doc = json.loads(out)
    assert doc["base"] == 15 and doc["period"] == 15
    assert len(doc["sequences"]) == 15


def test_profile_internal_inconsistency_exits_1(capsys, monkeypatch):
    # a broken window invariant is a library fault (exit 1), not bad input (2)
    profile_module = sys.modules["numelast.profile"]
    monkeypatch.setattr(profile_module, "frobenius", lambda S: S.generators[-2] * S.gk)
    code, out, err = run(capsys, "profile", "3,5")
    assert code == 1 and out == "" and "error" in err
    code, _, _ = run(capsys, "profile", "1")
    assert code == 2  # <1> has no tails: still an input error


def test_verify_core_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "core")
    assert code == 0
    assert "PASS core.length_tables_match_enumeration" in out
    assert "FAIL" not in out


def test_verify_negative_control(capsys, monkeypatch):
    # corrupt one table entry: the core suite must notice and exit nonzero
    @functools.cache
    def corrupted(generators):
        t = WindowTables(generators)
        if len(t.max_table) > 20:
            t.max_table[20] = max(t.max_table[20] + 1, 1)
        return t

    monkeypatch.setattr(numelast.lengths, "window_tables", corrupted)
    code = main(["verify", "--suite", "core"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL core.length_tables_match_enumeration" in out


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
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "FAIL arith.embedding_preserves_values" in done.stdout.splitlines()


def test_table_budget_exits_2(capsys):
    code, out, err = run(capsys, "stats", "9973,10007")
    assert code == 2 and out == "" and "error" in err
    code, out, err = run(capsys, "compare", "9973,10007", "3,5")
    assert code == 2 and out == "" and "error" in err

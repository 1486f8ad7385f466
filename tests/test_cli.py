from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import threeweight
from threeweight import cli
from threeweight.cli import emit_report, main
from threeweight.code import LinearCode, MultiplicityType, WeightDistribution, reed_muller, simplex
from threeweight.gfmat import GF2, FieldMatrix
from threeweight.matrixio import parse_matrix_text, serialize_matrix
from threeweight import code as code_module
from threeweight import swrg
from threeweight.swrg import CosetGraph

from code_oracles import columns
from conftest import data_path


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_enumerate_json_matches_golden(capsys):
    rc, out, _ = run_cli(
        capsys, "enumerate", "--q", "2", "--n-min", "4", "--n-max", "71",
        "--format", "json",
    )
    assert rc == 0
    golden = data_path("table1.json").read_text("utf-8")
    assert out == golden


def test_enumerate_csv_and_text_render(capsys):
    rc, out, _ = run_cli(
        capsys, "enumerate", "--q", "2", "--n-min", "4", "--n-max", "8",
        "--format", "csv",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("q,n,k,w1,w2,w3,A1,A2,A3,B3,verdict")
    assert len(lines) == 5
    rc, out, _ = run_cli(
        capsys, "enumerate", "--q", "2", "--n-min", "4", "--n-max", "8",
    )
    assert "verdict=realized" in out


def test_report_round_trip():
    rows = [
        {"q": 2, "n": 4, "k": 3, "w1": 1, "w2": 2, "w3": 3, "A1": 1, "A2": 3,
         "A3": 3, "B3": 1, "verdict": "realized", "reasons": []},
    ]
    assert json.loads(emit_report(rows, "json")) == rows
    assert emit_report([], "json") == "[]\n"
    assert emit_report([], "csv") == ""
    assert emit_report([], "text") == ""


def test_verify_fixture_pass(capsys):
    rc, out, _ = run_cli(
        capsys, "verify",
        str(data_path("matrices/q2_n048_k12_w16_24_32.txt")),
        "--expect-weights", "16,24,32", "--expect-freqs", "378,3336,381",
    )
    assert rc == 0 and "PASS" in out


def test_verify_expectation_mismatch(capsys):
    rc, out, _ = run_cli(
        capsys, "verify",
        str(data_path("matrices/q2_n004_k03_w1_2_3.txt")),
        "--expect-weights", "1,2,4",
    )
    assert rc == 1 and "FAIL" in out


def test_verify_ternary_fixture(capsys):
    rc, out, _ = run_cli(
        capsys, "verify",
        str(data_path("matrices/q3_n036_k06_w21_24_27.txt")),
        "--expect-weights", "21,24,27", "--expect-freqs", "288,144,296",
        "--graph", "--tss",
    )
    assert rc == 0 and "PASS" in out


def test_verify_sum_condition_failure(capsys, tmp_path):
    f = tmp_path / "parity6.txt"
    rows = ["100001", "010001", "001001", "000101", "000011"]
    f.write_text("q=2 n=6 k=5\n" + "\n".join(rows) + "\n", encoding="utf-8")
    rc, out, _ = run_cli(capsys, "verify", str(f))
    assert rc == 1
    assert "weight sum 12" in out and "MISMATCH" in out


def test_verify_rejects_a_huge_field_order_at_once(tmp_path):
    # a 19-digit prime once hung a trial-division primality test for minutes
    f = tmp_path / "huge_q.txt"
    f.write_text("q=1000000000000000003\n101\n011\n", encoding="utf-8")
    src = str(Path(threeweight.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "threeweight.cli", "verify", str(f)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: field order 1000000000000000003: only GF(2) and GF(3) are supported\n"
    )
    assert proc.stdout == ""


@pytest.mark.parametrize("text", ["q=5\n1021\n0134\n", "1021\n0134\n"], ids=["header", "digit-4"])
@pytest.mark.parametrize("command", ["verify", "graph"])
def test_gf5_file_exits_2_at_the_field_gate(capsys, tmp_path, command, text):
    f = tmp_path / "gf5.txt"
    f.write_text(text, encoding="utf-8")
    rc, out, err = run_cli(capsys, command, str(f))
    assert (rc, out) == (2, "")
    assert err == "error: field order 5: only GF(2) and GF(3) are supported\n"


@pytest.mark.parametrize("rows,rc,b_proj", [
    (["10", "01"], 0, True),  # the full [2,2]_2 space; its weights sum to 3n/2
    (["1"], 1, True),
    (["11"], 1, False),  # a repeated column: B2 = 1
])
def test_verify_codes_shorter_than_three(capsys, tmp_path, rows, rc, b_proj):
    # B_i with i > n is 0, not an index error
    f = tmp_path / "short.txt"
    f.write_text("\n".join(rows) + "\n", encoding="utf-8")
    got, out, err = run_cli(capsys, "verify", str(f), "--graph", "--tss")
    assert (got, err) == (rc, "")
    assert f"B1=B2=0: {b_proj}\nB3 = 0\n" in out


@pytest.fixture(scope="module")
def rm2_15_file(tmp_path_factory):
    """The [16384, 15]_2 first-order Reed-Muller code: 2^15 syndromes, over
    the vertex guard 2^14."""
    f = tmp_path_factory.mktemp("rm") / "rm2_15.txt"
    f.write_text(serialize_matrix(reed_muller(2, 15)), encoding="utf-8")
    return f


RM2_15_GRAPH = ("coset graph: 32768 vertices, 16384-regular; spectrum (16384, 0, -16384) "
                "verified: True; 3-walk-regular: True (0, 268435456, 0)")


@pytest.mark.parametrize("make,flags,rc,line", [
    # over the vertex guard, which bounds only the adjacency listing: no skip
    (lambda: reed_muller(2, 15), ["--graph", "--tss"], 0, None),
    (lambda: parse_matrix_text("110\n001\n"), ["--graph"], 1,
     "coset graph: skipped (the code is not projective)"),
    (lambda: parse_matrix_text("110\n001\n"), ["--tss"], 1,
     "coset graph: skipped (the code is not projective)"),
    (lambda: parse_matrix_text("110\n001\n"), [], 1, None),
], ids=["vertex-guard", "not-projective-graph", "not-projective-tss", "not-requested"])
def test_verify_reports_skipped_coset_graph(capsys, tmp_path, make, flags, rc, line):
    f = tmp_path / "code.txt"
    f.write_text(serialize_matrix(make()), encoding="utf-8")
    got, out, _ = run_cli(capsys, "verify", str(f), *flags)
    assert got == rc
    assert ("triple sum set" in out) == ("--tss" in flags and line is None)
    if line is None:
        assert "skipped" not in out
    else:
        assert f"\n{line}\n" in out


def test_verify_skip_line_reads_the_library_vertex_guard(capsys, rm2_15_file):
    # the vertex guard once skipped the coset graph here; verify now checks
    # it, bounded by the enumeration guard alone
    rc, out, _ = run_cli(capsys, "verify", str(rm2_15_file), "--graph")
    assert rc == 0 and swrg.vertex_guard_excess(2, 15) not in out
    assert f"\n{RM2_15_GRAPH}\nPASS\n" in out


def test_verify_builds_one_graph_and_enumerates_once(capsys, monkeypatch):
    calls = {"init": 0, "enumeration": 0}
    init, enumerate_words = CosetGraph.__init__, code_module._weight_counts

    def counting_init(self, *args):
        calls["init"] += 1
        init(self, *args)

    def counting_enumeration(*args):
        calls["enumeration"] += 1
        return enumerate_words(*args)

    monkeypatch.setattr(CosetGraph, "__init__", counting_init)
    monkeypatch.setattr(code_module, "_weight_counts", counting_enumeration)
    rc, out, _ = run_cli(
        capsys, "verify", str(data_path("matrices/q3_n009_k04_w3_6_9.txt")), "--graph", "--tss",
    )
    assert rc == 0 and "triple sum set: consistent=True" in out
    # the graph's spectrum is the weight distribution verify enumerated
    assert calls == {"init": 1, "enumeration": 1}


def test_graph_over_the_vertex_guard_exits_2(capsys, monkeypatch, tmp_path, rm2_15_file):
    # the listing once waited for the whole weight distribution and the
    # walk test before its guard refused it
    calls = []
    enumerate_words = code_module._weight_counts
    monkeypatch.setattr(
        code_module, "_weight_counts", lambda *args: calls.append(args) or enumerate_words(*args)
    )
    rc, out, err = run_cli(capsys, "graph", str(rm2_15_file), "--adjacency")
    assert (rc, out) == (2, "")
    assert err == f"error: {swrg.vertex_guard_excess(2, 15)}\n"
    assert calls == []
    # projectivity is still decided first
    cols = columns(reed_muller(2, 15).generator)
    f = tmp_path / "repeated.txt"
    f.write_text(serialize_matrix(
        LinearCode(GF2, FieldMatrix.from_columns(GF2, cols + cols[:1]))
    ), encoding="utf-8")
    rc, out, err = run_cli(capsys, "graph", str(f), "--adjacency")
    assert (rc, out) == (2, "")
    assert err == "error: coset graph construction requires a projective code\n"


def test_graph_summary_over_the_vertex_guard_prints_the_result(capsys, rm2_15_file):
    rc, out, err = run_cli(capsys, "graph", str(rm2_15_file), "--s", "5")
    assert (rc, err) == (0, "")
    payload = json.loads(out)
    assert payload["vertices"] == 1 << 15 and payload["degree"] == 1 << 14
    assert payload["eigenvalues"] == {"16384": 1, "0": (1 << 15) - 2, "-16384": 1}
    # K_{2^14, 2^14}: A^5 = 2^56 A
    assert (payload["is_s_swrg"], payload["walk_constants"]) == (True, [0, 1 << 56, 0])


def test_parse_error_exit_code(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("q=3\n014\n", encoding="utf-8")
    rc, _, err = run_cli(capsys, "verify", str(f))
    assert rc == 2 and "parse error" in err


def test_non_ascii_digit_row_exits_2(capsys, tmp_path):
    f = tmp_path / "superscript.txt"
    f.write_text("101\n1\u00b20\n", encoding="utf-8")
    rc, out, err = run_cli(capsys, "verify", str(f))
    assert rc == 2 and out == "" and "parse error" in err


def _utf16_file(d):
    f = d / "utf16.txt"
    f.write_bytes(b"\xff\xfe" + "101\n".encode("utf-16-le"))
    return f


@pytest.mark.parametrize("command,make", [
    ("verify", lambda d: d / "missing.txt"),
    ("graph", lambda d: d),
    ("verify", _utf16_file),
], ids=["missing", "directory", "not-utf8"])
def test_unreadable_matrix_file_exits_2(capsys, tmp_path, command, make):
    rc, out, err = run_cli(capsys, command, str(make(tmp_path)))
    assert (rc, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1


def test_whole_file_parse_errors_carry_no_line_number(capsys, tmp_path):
    missing = tmp_path / "missing.txt"
    rc, out, err = run_cli(capsys, "verify", str(missing))
    assert (rc, out) == (2, "")
    assert err == f"parse error: cannot read {missing}: No such file or directory\n"
    empty = tmp_path / "comments.txt"
    empty.write_text("# no rows\n\n", encoding="utf-8")
    rc, out, err = run_cli(capsys, "verify", str(empty))
    assert (rc, out) == (2, "")
    assert err == "parse error: no matrix rows found\n"
    bad = tmp_path / "bad.txt"
    bad.write_text("q=3\n014\n", encoding="utf-8")
    rc, out, err = run_cli(capsys, "verify", str(bad))
    assert (rc, out) == (2, "")
    assert err == "parse error: line 2: digit out of range for q=3\n"


def test_graph_command(capsys):
    rc, out, _ = run_cli(
        capsys, "graph", str(data_path("matrices/q2_n008_k04_w2_4_6.txt")), "--s", "3",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["vertices"] == 16 and payload["degree"] == 8
    assert payload["is_s_swrg"] is True
    rc, out, _ = run_cli(
        capsys, "graph", str(data_path("matrices/q2_n008_k04_w2_4_6.txt")),
        "--adjacency",
    )
    assert rc == 0 and len(out.splitlines()) == 16


def test_graph_adjacency_streams_its_rows(tmp_path):
    # the listing once held one translation table of q^k ints per element
    # of Omega at once: 36.7 MiB at its peak for Sim_2(10), whose 1024
    # lines of 1023 neighbours take 3.9 MiB
    f = tmp_path / "sim2_10.txt"
    f.write_text(serialize_matrix(simplex(2, 10)), encoding="utf-8")
    buf = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(["graph", str(f), "--adjacency"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = buf.getvalue()
    assert rc == 0 and out.count("\n") == 1024
    assert peak <= len(out) + (2 << 20), (peak, len(out))


@pytest.mark.parametrize("s", ["2", "4", "1"])
def test_graph_rejects_even_or_short_walks(capsys, s):
    rc, out, err = run_cli(
        capsys, "graph", str(data_path("matrices/q2_n008_k04_w2_4_6.txt")), "--s", s,
    )
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "odd s >= 3" in err


def test_graph_adjacency_rejects_an_even_walk_before_listing(capsys):
    # the listing prints no walk constants, but --s is still checked first
    rc, out, err = run_cli(
        capsys, "graph", str(data_path("matrices/q2_n008_k04_w2_4_6.txt")), "--adjacency", "--s", "4",
    )
    assert (rc, out) == (2, "")
    assert err == "error: the walk-regularity test is for odd s >= 3\n"


def test_curve_command(capsys):
    rc, out, _ = run_cli(capsys, "curve", "--d", "3", "--bound", "30")
    assert rc == 0
    payload = json.loads(out)
    assert payload["points"] == [[0, 1, -1], [1, -1, 0], [1, 0, -1]]


def test_curve_output_is_byte_stable(capsys):
    # the payload once carried the wall-clock search time
    first = run_cli(capsys, "curve", "--d", "3", "--bound", "30")
    second = run_cli(capsys, "curve", "--d", "3", "--bound", "30")
    assert first == second
    points = [[0, 1, -1], [1, -1, 0], [1, 0, -1]]
    expected = json.dumps({"d": 3, "bound": 30, "points": points}, indent=1, sort_keys=True)
    assert first == (0, expected + "\n", "")


@pytest.mark.parametrize("argv", [("--d", "0", "--bound", "5"), ("--d", "3", "--bound", "0")])
def test_curve_rejects_nonpositive_arguments(capsys, argv):
    rc, out, err = run_cli(capsys, "curve", *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "must be >= 1" in err


def test_curve_bound_over_guard_exits_2(capsys):
    rc, out, err = run_cli(capsys, "curve", "--d", "3", "--bound", "2001")
    assert rc == 2 and out == ""
    assert err == "error: bound 2001 over guard 2000\n"


@pytest.mark.parametrize("d", ["26", "99999"])
def test_curve_degree_over_guard_exits_2(capsys, d):
    # d = 99999 once ran for minutes in the O(d^2) self-check; an even
    # degree over the guard once printed no points
    rc, out, err = run_cli(capsys, "curve", "--d", d, "--bound", "5")
    assert rc == 2 and out == ""
    assert err == f"error: degree {d} over guard 25\n"


def test_scan_command(capsys):
    rc, out, _ = run_cli(
        capsys, "scan-counterexamples", "--n-max", "120", "--format", "json",
    )
    assert rc == 0
    rows = json.loads(out)
    assert [(r["n"], r["y"]) for r in rows] == [(112, 128), (116, 128), (120, 64)]


def test_kn_witness_command(capsys):
    rc, out, _ = run_cli(capsys, "kn-witness", "--a", "1")
    assert rc == 0 and "K=3" in out and "N=4" in out


def test_enumerate_include_unlisted_flag(capsys):
    rc, default, _ = run_cli(
        capsys, "enumerate", "--q", "2", "--n-min", "44", "--n-max", "44",
        "--format", "json",
    )
    assert rc == 0 and json.loads(default) == []
    rc, full, _ = run_cli(
        capsys, "enumerate", "--q", "2", "--n-min", "44", "--n-max", "44",
        "--format", "json", "--include-unlisted",
    )
    rows = json.loads(full)
    assert rc == 0 and len(rows) == 1
    assert (rows[0]["n"], rows[0]["k"], rows[0]["verdict"]) == (44, 6, "excluded")


def test_enumerate_include_unlisted_shows_admissible_rows(capsys):
    rc, out, _ = run_cli(
        capsys, "enumerate", "--q", "3", "--n-min", "3", "--n-max", "14",
        "--format", "json", "--include-unlisted",
    )
    assert rc == 0
    assert any(r["verdict"] == "admissible" for r in json.loads(out))


def test_enumerate_has_no_jobs_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--q", "2", "--n-min", "4", "--n-max", "8", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class _LongCode:
    """The part of a code that `verify` reads before its coset graph, for
    lengths too long to build and enumerate in a test."""

    def __init__(self, q, n):
        self.q, self.n = q, n

    def params(self):
        return self.q, self.n, 2

    def weight_distribution(self):
        return WeightDistribution.from_dict(self.n, {0: 1, 1: 1})

    def is_projective(self):
        return False, MultiplicityType((), 0)


@pytest.mark.parametrize("q,n,target", [
    (2, 666667, "2000001/2"),  # 1000000.5 printed as 1e+06 through a float
    (2, 2000001, "6000003/2"),
    (3, 500001, "1000002"),
])
def test_verify_prints_the_weight_sum_target_exactly(capsys, monkeypatch, q, n, target):
    monkeypatch.setattr(cli, "parse_matrix_file", lambda path: _LongCode(q, n))
    monkeypatch.setattr(cli, "dual_numerators", lambda *args: [1, 0, 0, 0])
    rc, out, _ = run_cli(capsys, "verify", "long.txt")
    assert rc == 1
    assert f"weight sum 1 (3n(q-1)/q = {target}): MISMATCH\n" in out
    assert f"FAIL: weight sum 1 != {target}\n" in out


def test_scan_csv_carries_y_column(capsys):
    rc, out, _ = run_cli(
        capsys, "scan-counterexamples", "--n-max", "112", "--format", "csv",
    )
    assert rc == 0
    lines = out.splitlines()
    assert "y" in lines[0].split(",")
    assert len(lines) == 2


@pytest.mark.parametrize("argv", [
    ("scan-counterexamples", "--n-max", "8192"),
    ("enumerate", "--q", "2", "--n-min", "1000", "--n-max", "1024"),
    ("enumerate", "--q", "3", "--n-min", "3", "--n-max", "1024"),
])
def test_q2_guard_exits_2(capsys, argv):
    # each --n-max is its command's guard: the scan's 8192, enumerate's 1024
    # for both fields
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and f"guarded at n < {argv[-1]}" in err


def test_verify_passes_on_every_fixture(capsys, fixture_codes):
    for name, code, (weights, freqs) in fixture_codes:
        rc, out, _ = run_cli(
            capsys, "verify", str(data_path(f"matrices/{name}")),
            "--expect-weights", ",".join(map(str, weights)),
            "--expect-freqs", ",".join(map(str, freqs)),
        )
        assert rc == 0 and "PASS" in out, name


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--q", "7", "--n-min", "1", "--n-max", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--expect-weights", "--expect-freqs"])
def test_non_integer_triple_is_a_usage_error(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(data_path("matrices/q2_n004_k03_w1_2_3.txt")), flag, "a,b,c"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(
        f"threeweight verify: error: argument {flag}: expected three comma-separated integers\n"
    )
    assert "_parse_triple" not in err


# -- one parser per process ------------------------------------------------

FIXTURE = str(data_path("matrices/q2_n008_k04_w2_4_6.txt"))
EVERY_COMMAND = [
    ["enumerate", "--q", "2", "--n-min", "4", "--n-max", "12", "--format", "csv"],
    ["verify", FIXTURE, "--graph", "--tss"],
    ["graph", FIXTURE, "--s", "9"],
    ["curve", "--d", "3", "--bound", "20"],
    ["scan-counterexamples", "--n-max", "112"],
    ["kn-witness", "--a", "1"],
    ["verify", FIXTURE, "--expect-freqs", "1,x,3"],
]


def _exit(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _command_parsers(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_import_builds_no_parser():
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "from threeweight import cli\n"
        "print(len(built), cli._parser)\n"
    )
    src = str(Path(threeweight.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 None\n", "")


def test_main_builds_the_parser_once(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_parser", None)
    builds = []
    build = cli.build_parser

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    for argv in EVERY_COMMAND * 3:
        _exit(argv)
    capsys.readouterr()
    assert len(builds) == 1
    assert cli._parser is not None


def test_usage_error_leaves_the_reused_parser_intact(capsys, monkeypatch):
    valid = ["graph", FIXTURE, "--s", "9"]
    monkeypatch.setattr(cli, "_parser", None)
    alone = (_exit(valid), capsys.readouterr())
    monkeypatch.setattr(cli, "_parser", None)
    assert _exit(["graph", FIXTURE, "--s", "x"]) == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err
    after_error = (_exit(valid), capsys.readouterr())
    assert after_error == alone
    assert alone[0] == 0 and alone[1].err == ""


def test_reused_parser_help_matches_a_fresh_parser(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in EVERY_COMMAND:
        _exit(argv)
    capsys.readouterr()
    warm, fresh = cli._parser, cli.build_parser()
    assert warm is not None and warm is not fresh
    assert warm.format_help() == fresh.format_help()
    warm_commands, fresh_commands = _command_parsers(warm), _command_parsers(fresh)
    assert list(warm_commands) == list(fresh_commands)
    for name, parser in warm_commands.items():
        assert parser.format_help() == fresh_commands[name].format_help(), name


def test_cold_process_and_warm_parser_print_the_same_bytes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(threeweight.__file__).resolve().parents[1])
    for argv in EVERY_COMMAND:  # every command has run once before it is compared
        _exit(argv)
    capsys.readouterr()
    for argv in EVERY_COMMAND:
        cold = subprocess.run(
            [sys.executable, "-m", "threeweight.cli", *argv], capture_output=True,
            env={**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}, timeout=120,
        )
        rc = _exit(argv)
        warm = capsys.readouterr()
        assert (rc, warm.out.encode(), warm.err.encode()) == (
            cold.returncode, cold.stdout, cold.stderr
        ), argv

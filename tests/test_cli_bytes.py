"""The CLI's bytes stay fixed: each run below is one in-process `cli.main`
call, and `cli_digests.json` holds the sha256 of its stdout and stderr and
its exit code.  A change to any report, fixture run or error message fails
here.

Regenerate the digests (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_bytes.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from threeweight import cli
from threeweight.code import reed_muller
from threeweight.matrixio import serialize_matrix

from conftest import data_path, matrix_files

DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"

# Inputs for the error and parse paths, written to a temporary directory:
# none of their messages names the file.  `write_error_files` adds one
# generated code there too (see `runs`).
ERROR_FILES = {
    "gf5": "q=5 n=2 k=1\n12\n",
    "rank_deficient": "q=2\n110\n110\n",
    "not_projective": "q=2\n1100\n0011\n",
    "digit_over_q": "q=2 n=3 k=2\n101\n021\n",
    "headerless_digit5": "105\n011\n",
    "ragged": "q=2\n1011\n011\n",
    "header_n": "q=2 n=4 k=2\n101\n011\n",
    "header_k": "q=2 n=3 k=3\n101\n011\n",
    "double_bracket": "q=2\n101]]\n011\n",
    "crlf": "q=3 n=4 k=2\r\n1110\r\n0121\r\n",
}


def runs(error_dir: Path) -> dict[str, list[str]]:
    """Run id -> argv."""
    out = {}
    for path in matrix_files():
        out[f"verify-graph-tss/{path.name}"] = ["verify", str(path), "--graph", "--tss"]
        out[f"graph-s9/{path.name}"] = ["graph", str(path), "--s", "9"]
    adjacency = data_path("matrices/q3_n009_k04_w3_6_9.txt")
    out["graph-adjacency/q3"] = ["graph", str(adjacency), "--adjacency"]
    binary = data_path("matrices/q2_n008_k04_w2_4_6.txt")
    out["graph-adjacency/q2"] = ["graph", str(binary), "--adjacency"]
    for q, n_max in ((2, 71), (3, 39)):
        for fmt in ("text", "json", "csv"):
            out[f"enumerate/q{q}/{fmt}"] = [
                "enumerate", "--q", str(q), "--n-min", "4", "--n-max", str(n_max),
                "--format", fmt,
            ]
        out[f"enumerate/q{q}/unlisted"] = [
            "enumerate", "--q", str(q), "--n-min", "4", "--n-max", str(n_max),
            "--include-unlisted",
        ]
    out["scan/256"] = ["scan-counterexamples", "--n-max", "256"]
    for d in (*range(1, 14), 26):
        out[f"curve/d{d}"] = ["curve", "--d", str(d), "--bound", "40"]
    for a in (1, 2):
        out[f"kn-witness/a{a}"] = ["kn-witness", "--a", str(a)]
    out["error/gf5"] = ["verify", str(error_dir / "gf5.txt")]
    out["error/rank-deficient"] = ["verify", str(error_dir / "rank_deficient.txt")]
    out["error/graph-not-projective"] = ["graph", str(error_dir / "not_projective.txt")]
    for name in ("digit_over_q", "headerless_digit5", "ragged", "header_n", "header_k",
                 "double_bracket"):
        out[f"error/parse-{name}"] = ["verify", str(error_dir / f"{name}.txt")]
    out["parse/crlf"] = ["verify", str(error_dir / "crlf.txt"), "--graph", "--tss"]
    # 2^15 syndromes: over the vertex guard, which bounds only `graph --adjacency`
    out["verify-graph-tss/rm2_15"] = ["verify", str(error_dir / "rm2_15.txt"), "--graph", "--tss"]
    out["error/graph-s11"] = ["graph", str(adjacency), "--s", "11"]
    out["error/enumerate-guard"] = ["enumerate", "--q", "2", "--n-min", "4", "--n-max", "1024"]
    return out


def write_error_files(error_dir: Path) -> None:
    for name, text in ERROR_FILES.items():
        (error_dir / f"{name}.txt").write_text(text, encoding="utf-8")
    (error_dir / "rm2_15.txt").write_text(serialize_matrix(reed_muller(2, 15)), encoding="utf-8")


def digest(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {
        "exit": rc,
        "stdout": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest(),
    }


@pytest.fixture(scope="module")
def error_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_errors")
    write_error_files(path)
    return path


def test_digest_file_covers_every_run(error_dir):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(runs(error_dir))
    assert sum(1 for run in pinned if run.startswith("graph-s9/")) == 74


def test_cli_bytes_match_digests(error_dir):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    changed = [
        run for run, argv in runs(error_dir).items()
        if digest(argv) != pinned.get(run)
    ]
    assert changed == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_error_files(Path(tmp))
        table = {run: digest(argv) for run, argv in runs(Path(tmp)).items()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS}")

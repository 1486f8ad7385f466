"""`cli.main` on generated argv: every call ends in exit code 0, 1 or 2.

argparse's own `SystemExit(2)` is the only exception allowed out of `main`.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threeweight.cli import main

from conftest import data_path

FILE_POOL = {
    "binary fixture": data_path("matrices/q2_n008_k04_w2_4_6.txt").read_text("utf-8"),
    "ternary fixture": data_path("matrices/q3_n009_k04_w3_6_9.txt").read_text("utf-8"),
    "not projective": "q=2 n=4 k=2\n1100\n0011\n",
    "malformed": "q=2\n10x1\n",
    "missing": None,
    "gf5": "q=5 n=3 k=2\n102\n014\n",
}


@pytest.fixture(scope="module")
def file_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("pool")
    paths = []
    for i, text in enumerate(FILE_POOL.values()):
        path = root / f"m{i}.txt"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return paths


small = st.integers(-2, 100).map(str)
fmt = st.lists(st.sampled_from(("--format", "text", "json", "csv", "xml")), max_size=2)
triple = st.sampled_from(("1,2,3", "2,4,6", "3,6,9", "1,2", "a,b,c", "", "-1,0,1"))


@st.composite
def argvs(draw, files):
    command = draw(st.sampled_from(
        ("enumerate", "verify", "graph", "curve", "scan-counterexamples", "kn-witness")
    ))
    if command == "enumerate":
        argv = ["--q", str(draw(st.integers(1, 4))), "--n-min", draw(small), "--n-max", draw(small)]
        argv += draw(fmt) + draw(st.sampled_from(([], ["--include-unlisted"])))
    elif command == "scan-counterexamples":
        argv = ["--n-max", draw(small)] + draw(fmt)
    elif command == "verify":
        argv = [draw(st.sampled_from(files))]
        for flag in ("--expect-weights", "--expect-freqs"):
            if draw(st.booleans()):
                argv += [flag, draw(triple)]
        argv += draw(st.lists(st.sampled_from(("--graph", "--tss")), max_size=2))
    elif command == "graph":
        argv = [draw(st.sampled_from(files)), "--s", str(draw(st.integers(-2, 12)))]
        argv += draw(st.sampled_from(([], ["--adjacency"])))
    elif command == "curve":
        argv = ["--d", str(draw(st.integers(-2, 12))), "--bound", str(draw(st.integers(-2, 40)))]
    else:
        argv = ["--a", str(draw(st.integers(0, 4)))]
    if argv and draw(st.integers(0, 9)) == 0:  # now and then a required piece is missing
        del argv[draw(st.integers(0, len(argv) - 1))]
    return [command] + argv


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(data=st.data())
def test_main_exits_0_1_or_2(file_paths, data):
    argv = data.draw(argvs(file_paths))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            rc = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, (argv, exc.code)
            assert err.getvalue().startswith("usage: "), argv
            return
    assert rc in (0, 1, 2), (argv, rc)

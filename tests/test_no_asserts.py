"""Library self-checks must raise, so that they still run under `python -O`."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import threeweight


def test_library_has_no_assert_statements():
    root = resources.files("threeweight")
    found = []
    for path in sorted(root.iterdir(), key=lambda p: p.name):
        if path.name.endswith(".py"):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=path.name)
            found += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Assert)
            ]
    assert found == []


OPTIMIZED_SELF_CHECK = """
import sys
from threeweight import code
from threeweight.errors import SelfCheckFailed
from threeweight.gfmat import FieldMatrix, PrimeField

assert False, "asserts must be stripped"
print("optimize", sys.flags.optimize)
for q, counts in ((2, [1]), (3, [1]), (2, [1, 1, 2]), (3, [1, 1, 7])):
    code._weight_counts = lambda q, rows: counts
    field = PrimeField(q)
    matrix = FieldMatrix.from_rows(field, [[1, 0, 1], [0, 1, 1]])
    try:
        code.LinearCode(field, matrix).weight_distribution()
    except SelfCheckFailed as exc:
        print(f"GF({q}) raised:", exc)
"""


def test_enumeration_self_check_raises_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(threeweight.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SELF_CHECK],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == [
        "optimize 1",
        "GF(2) raised: enumeration counted 1 codewords, not q^k",
        "GF(3) raised: enumeration counted 1 codewords, not q^k",
        "GF(2) raised: enumerated weights sum to 5, not q^(k-1)(q-1) times 3 nonzero columns",
        "GF(3) raised: enumerated weights sum to 15, not q^(k-1)(q-1) times 3 nonzero columns",
        "",
    ]


OPTIMIZED_CURVE_CHECK = """
import sys
from threeweight import curve
from threeweight.curve import CurveQuery
from threeweight.errors import SelfCheckFailed

assert False, "asserts must be stripped"
print("optimize", sys.flags.optimize)
for name in ("monomial_sum", "vandam_lhs"):
    original = getattr(curve, name)
    setattr(curve, name, lambda d, *t: 1)
    try:
        curve.search_integral_points(CurveQuery(3, 5))
    except SelfCheckFailed:
        print(name, "raised")
    setattr(curve, name, original)
"""


def test_curve_self_checks_raise_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(threeweight.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CURVE_CHECK],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["optimize 1", "monomial_sum raised", "vandam_lhs raised", ""]


OPTIMIZED_SWRG_CHECK = """
import sys
from threeweight.code import simplex
from threeweight.errors import SelfCheckFailed
from threeweight.swrg import CosetGraph, coset_graph, is_s_swrg, verify_spectrum

assert False, "asserts must be stripped"
print("optimize", sys.flags.optimize)
for spectrum in ({7: 1, -1: 6}, {7: 1, -1: 5, 1: 2}):
    try:
        verify_spectrum(CosetGraph(2, 3, range(1, 8), spectrum))
    except SelfCheckFailed as exc:
        print("spectrum raised:", exc)
try:
    is_s_swrg(CosetGraph(2, 3, (1, 2, 4, 6), {4: 1, 1: 3, -1: 4}), 3)
except SelfCheckFailed as exc:
    print("gamma raised:", exc)
code = simplex(2, 3)
code.is_projective()
code._numerals = (lambda v: v[:1] + v[:1] + v[2:])(code.scalar_numerals())
try:
    coset_graph(code)
except SelfCheckFailed as exc:
    print("degree raised:", exc)
"""


def test_graph_self_checks_raise_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(threeweight.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SWRG_CHECK],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == [
        "optimize 1",
        "spectrum raised: spectral moments 0..2 are [7, 1, 55], not [8, 0, 56]",
        "spectrum raised: spectral moments 0..2 are [8, 4, 56], not [8, 0, 56]",
        "gamma raised: walk constant gamma is not an integer: remainder 4 mod q^k",
        "degree raised: coset graph degree 6 != n(q-1) = 7",
        "",
    ]


OPTIMIZED_B3_CHECK = """
import sys
from threeweight import feasibility
from threeweight.errors import InvalidArgument, SelfCheckFailed
from kernel_triples import length_triples

assert False, "asserts must be stripped"
print("optimize", sys.flags.optimize)
real = feasibility.dual_sequence_exact
feasibility.dual_sequence_exact = lambda *args: (lambda b: b[:3] + (b[3] + 1,))(real(*args))
try:
    list(feasibility.length_candidates(2, 4, length_triples(2, 4)))
except SelfCheckFailed as exc:
    print("B_3 raised:", exc)
feasibility.dual_sequence_exact = lambda *args: (lambda b: b and (1, 1, 0, b[3]))(real(*args))
try:
    list(feasibility.length_candidates(2, 4, length_triples(2, 4)))
except SelfCheckFailed as exc:
    print("B_1 raised:", exc)
feasibility.dual_sequence_exact = real
try:
    print("float k:", real(2, 4, 3.0, (1, 2, 3), (1, 3, 3)))
except InvalidArgument as exc:
    print("float k raised:", exc)
print("signs:", real(2, 4, 4, (1, 2, 4), (0, 14, 1)), real(3, 4, 2, (1, 2, 3), (3, 0, 5)))
print("integrality:", real(2, 4, 3, (1, 2, 3), (2, 3, 2)), real(3, 4, 2, (1, 2, 3), (0, 0, 0)))
print("admitted:", real(2, 4, 3, (1, 2, 3), (1, 3, 3)))
"""


def test_b3_self_check_raises_under_python_O():
    # the script lists the kernel's triples through tests/kernel_triples.py
    src = Path(threeweight.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(Path(__file__).resolve().parent))))
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_B3_CHECK],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == [
        "optimize 1",
        "B_3 raised: B_0..B_3 = (1, 0, 0, 2) of the dual distribution, not (1, 0, 0, 1) "
        "from the frequencies and K_3, for q=2, n=4, k=3, weights=(1, 2, 3)",
        "B_1 raised: B_0..B_3 = (1, 1, 0, 1) of the dual distribution, not (1, 0, 0, 1) "
        "from the frequencies and K_3, for q=2, n=4, k=3, weights=(1, 2, 3)",
        "float k raised: the dual test needs q in {2, 3}, int n and k >= 0, 0 < w1 < w2 < w3 <= n: "
        "(2, 4, 3.0, (1, 2, 3))",
        "signs: None None",
        "integrality: None None",
        "admitted: (1, 0, 0, 1)",
        "",
    ]

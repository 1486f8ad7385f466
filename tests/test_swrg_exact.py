"""The graph layer is exact: no true division, no float, and a walk
constant that is not an integer raises (tests/test_swrg.py); both steps of
the character-transform oracle that can lose exactness raise too.  The CLI that
prints its results does no inexact arithmetic either, nor do the code,
matrix and parsing layers; feasibility, transform and curve use only the
integer functions comb, gcd and isqrt of math (transform builds its rational
frequencies with the Fraction constructor, never by `/`)."""

from __future__ import annotations

import ast
from importlib import resources
from pathlib import Path

import pytest

from threeweight.errors import SelfCheckFailed

import swrg_oracles
from swrg_oracles import cayley_graph


def inexact_constructs(module: str, allowed_math: frozenset[str] = frozenset(), root=None) -> list[str]:
    """True divisions, float or complex literals and math imports in a module
    of the package (or of the directory root), except `from math import` of
    names in allowed_math."""
    path = (root or resources.files("threeweight")).joinpath(module)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=module)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"division at line {node.lineno}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"float literal at line {node.lineno}")
        elif isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name in ("math", "cmath")]
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
            names = {a.name for a in node.names}
            if node.module == "cmath" or not names <= allowed_math:
                found.append(f"from {node.module} import {', '.join(sorted(names))}")
    return found


def test_swrg_has_no_true_division_float_or_math():
    assert inexact_constructs("swrg.py") == []


def test_cli_has_no_true_division_float_or_math():
    assert inexact_constructs("cli.py") == []


@pytest.mark.parametrize("module", ["code.py", "gfmat.py", "matrixio.py"])
def test_module_has_no_true_division_float_or_math(module):
    assert inexact_constructs(module) == []


@pytest.mark.parametrize("module", ["feasibility.py", "transform.py", "triples.py", "curve.py"])
def test_module_uses_only_integer_math(module):
    assert inexact_constructs(module, frozenset({"comb", "gcd", "isqrt"})) == []


def test_inexact_constructs_flags_what_it_does_not_allow():
    assert inexact_constructs("feasibility.py") == ["from math import comb, gcd"]
    assert inexact_constructs("feasibility.py", frozenset({"gcd"})) == ["from math import comb, gcd"]
    assert inexact_constructs("triples.py") == ["from math import isqrt"]
    assert inexact_constructs("triples.py", frozenset({"isqrt"})) == []
    # no module of the package divides by `/`; the binary closed form in the
    # transform oracles does
    assert "division at line" in " ".join(inexact_constructs("transform_oracles.py", root=Path(__file__).parent))


@pytest.mark.parametrize("q,k,omega", [
    (3, 1, [1]),  # misses 2 * 1
    (3, 2, [1, 2, 3]),  # misses 2 * 3
    (5, 2, [1, 2, 3, 4, 5, 10]),  # misses 3 * 5 and 4 * 5
])
def test_odd_transform_of_an_unclosed_indicator_is_not_rational(q, k, omega):
    indicator = [1 if h in omega else 0 for h in range(q**k)]
    with pytest.raises(SelfCheckFailed, match="not an integer"):
        swrg_oracles._character_sums([indicator], q, k)


def test_odd_transform_of_a_line_is_rational():
    # the line {1, 2} of F_3: lambda_u = 2 at u = 0 and -1 elsewhere
    assert swrg_oracles._character_sums([[0, 1, 1]], 3, 1) == [2, -1, -1]
    # and back: q^-1 (2 - chi(-h) - chi(-2h)) is the indicator itself
    assert swrg_oracles._character_sums([[2, -1, -1]], 3, 1, inverse=True) == [0, 1, 1]


def test_walk_counts_refuse_an_inexact_division(monkeypatch):
    g = cayley_graph(3, 2, [(1, 0), (0, 1)])
    transform = swrg_oracles._character_transform

    def off_by_one(planes, q, k, sign=1):
        out = transform(planes, q, k, sign)
        out[0][0] += 1
        return out

    monkeypatch.setattr(swrg_oracles, "_character_transform", off_by_one)
    with pytest.raises(SelfCheckFailed, match="not a multiple of q\\^k = 9"):
        swrg_oracles.walk_counts(g, 3)

"""Library self-checks must raise, so that they still run under `python -O`."""

from __future__ import annotations

import ast
from importlib import resources


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

"""The library stays the size of what it runs: every top-level function,
class and method defined under src/ is referenced somewhere in src/ outside
its own definition (a method only through an attribute, `x.name`), no name
is defined twice, and every name a module imports is used in that module,
unless an allowlist below names it with a reason.  No docstring or comment
names a `module.name` that is gone."""

from __future__ import annotations

import ast
import io
import os
import re
import subprocess
import sys
import tokenize
from collections import Counter
from importlib import import_module, resources
from pathlib import Path

# The names `perfbench/bench_trace.py` TARGETS traces and
# `perfbench/test_perfbench.py` requires to exist; they leave src/ once the
# benchmark stops tracing them.
BENCHMARK_PINNED = {
    # `rank()` no longer runs rref; the benchmark still times it as `gfmat.rref`
    "gfmat.FieldMatrix.rref",
    "feasibility.weight_triples",
    "feasibility.evaluate_candidate",
    "swrg.CosetGraph.apply_adjacency",
    # three_weight_solve reads B_0..B_3 from krawtchouk_column now
    "transform.dual_distribution",
}

# Only names that nothing in src/ references belong here: an entry for a
# referenced name would go on hiding it once it stopped being used.
ALLOWED = {
    *BENCHMARK_PINNED,
    # the parser's inverse, which the round-trip fuzz runs
    "matrixio.serialize_matrix",
}

TESTS = Path(__file__).resolve().parent
BENCH_TRACE = TESTS.parent / "perfbench" / "bench_trace.py"


def _definitions(module: str, tree: ast.Module):
    """(qualified name, node) for each top-level function and class and
    each method, dunders aside since Python calls those implicitly."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    yield f"{module}.{node.name}.{member.name}", member


def _references(module: str, tree: ast.Module):
    """(module, line, name, is_attribute) for each Name, Attribute and
    imported alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield module, node.lineno, node.id, False
        elif isinstance(node, ast.Attribute):
            yield module, node.lineno, node.attr, True
        elif isinstance(node, ast.alias):
            yield module, node.lineno, node.name, False


def _trees() -> dict[str, ast.Module]:
    return {
        path.name[:-3]: ast.parse(path.read_text(encoding="utf-8"))
        for path in resources.files("threeweight").iterdir()
        if path.name.endswith(".py")
    }


def _surface():
    trees = _trees()
    defined = [d for module, tree in trees.items() for d in _definitions(module, tree)]
    # __init__ only re-exports; its imports are the public API, not a use
    refs = [
        r for module, tree in trees.items() if module != "__init__"
        for r in _references(module, tree)
    ]
    return defined, refs


def _unreferenced() -> set[str]:
    """The definitions nothing in src/ references outside their own body.
    A method is reached only through an attribute, so a local variable or
    a function of the same name does not count as its use."""
    defined, refs = _surface()
    unused = set()
    for qualified, node in defined:
        module, name = qualified.split(".")[0], qualified.rpartition(".")[2]
        method = qualified.count(".") == 2
        inside = range(node.lineno, node.end_lineno + 1)
        if not any(
            r == name and (attr or not method) and not (m == module and line in inside)
            for m, line, r, attr in refs
        ):
            unused.add(qualified)
    return unused


def test_every_definition_is_referenced_or_allowed():
    assert sorted(_unreferenced() - ALLOWED) == []


def test_allowlist_names_only_unreferenced_definitions():
    assert sorted(ALLOWED - _unreferenced()) == []


def test_allowlist_names_live_definitions():
    defined = {qualified for qualified, _ in _surface()[0]}
    assert sorted(ALLOWED - defined) == []


def test_benchmark_pinned_names_are_traced():
    tree = ast.parse(BENCH_TRACE.read_text(encoding="utf-8"))
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS"
    )
    traced = {f"{module}.{attr}" for module, attr, _, _ in targets}
    assert sorted(BENCHMARK_PINNED - traced) == []


# Names defined more than once under src/, each with the reason it must be.
# The reference check above matches by bare name, so a use of one
# definition would keep every other definition of the name alive unseen.
SHARED_NAMES = {
    # cli.py reads `as_dict` on both WeightDistribution and MultiplicityType
    "as_dict",
}


def test_no_name_is_defined_twice_unless_allowed():
    counts = Counter(qualified.rpartition(".")[2] for qualified, _ in _surface()[0])
    assert sorted(name for name, n in counts.items() if n > 1) == sorted(SHARED_NAMES)


# Names a src/ module imports and never uses, each with the reason it must.
UNUSED_IMPORTS = {
    # perfbench/test_perfbench.py reads it to check that the tracer patches
    # the solver in every module namespace that binds it, not only transform
    "feasibility.three_weight_solve",
}


def _unused_imports() -> set[str]:
    """module.name for each name an import binds that no Name node of the
    same module reads.  `from __future__` binds nothing, and __init__ only
    re-exports."""
    unused = set()
    for module, tree in _trees().items():
        if module == "__init__":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound = (alias.asname or alias.name).partition(".")[0]
                    if bound not in read:
                        unused.add(f"{module}.{bound}")
    return unused


def test_every_import_is_used_or_allowed():
    assert sorted(_unused_imports() - UNUSED_IMPORTS) == []


def test_import_allowlist_names_only_unused_imports():
    assert sorted(UNUSED_IMPORTS - _unused_imports()) == []


# -- stale references -------------------------------------------------------
# A docstring or comment that names `module.name` goes on sending readers
# to it after the definition has moved out of the module or gone.


def _prose(path: Path):
    """The docstrings and comments of one file."""
    text = path.read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            yield ast.get_docstring(node) or ""
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.string


def test_dotted_references_in_prose_name_live_definitions():
    """Every `module.name`, module one of the package's modules, in the
    docstrings and comments of src/, of the test oracles and of the
    catalog names a definition the module still has."""
    modules = sorted(set(_trees()) - {"__init__"})
    pattern = re.compile(rf"(?<![\w/])({'|'.join(modules)})\.([A-Za-z_]\w*)")
    files = [Path(p) for p in resources.files("threeweight").iterdir() if p.name.endswith(".py")]
    files += [*TESTS.glob("*oracles.py"), TESTS / "catalog.py"]
    refs = {(path.name, m, name) for path in files for text in _prose(path) for m, name in pattern.findall(text)}
    assert len(refs) >= 10
    stale = [f"{file}: {m}.{name}" for file, m, name in sorted(refs) if not hasattr(import_module(f"threeweight.{m}"), name)]
    assert stale == []


# -- import cost ------------------------------------------------------------
# Each `@dataclass` decoration execs its generated methods at import, about
# 0.8 ms a class; the records are NamedTuples and the validating classes
# plain __slots__ classes instead.


def test_no_module_imports_dataclasses():
    imported = {
        (module, alias.name if isinstance(node, ast.Import) else node.module)
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert sorted(m for m, name in imported if name == "dataclasses") == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = Path(resources.files("threeweight")).parent
    probe = (
        "import sys\n"
        "import threeweight.cli, threeweight.curve\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    # -S: no site hooks, so only the program's own imports are seen
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[]\n"

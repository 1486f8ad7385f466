"""The four workloads: their set-up, their jobs and the oracle of each job.

A job is one operation of a user: a CLI command run in-process through
threeweight.cli.main with stdout captured, or, where the CLI has no
command for it, the public library call.  Every job's output is checked by
a bench_oracles routine; a wrong output, a nonzero exit code or an
exception counts as a failed operation and the run goes on.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import bench_oracles as oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "threeweight" / "data"
MODULES = ("cli", "matrixio", "gfmat", "code", "transform", "feasibility", "swrg", "curve")


def load_program(fresh: bool = True) -> SimpleNamespace:
    """Import the threeweight modules from this checkout's src/.

    With fresh=True every threeweight module is dropped from sys.modules
    first, so the import cost is paid again and can be timed.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules if m == "threeweight" or m.startswith("threeweight.")]:
            del sys.modules[name]
    prog = SimpleNamespace(**{m: importlib.import_module(f"threeweight.{m}") for m in MODULES})
    origin = Path(prog.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"threeweight was imported from {origin}, not from {SRC}")
    return prog


# -- operations ---------------------------------------------------------------


@dataclass
class Op:
    job: str  # the timed job this operation belongs to
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, op: Op, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op.job} {op.label}: {error}")


def run_op(op: Op, tally: Tally, meter=None) -> tuple[float, object]:
    """Run and check one operation; (seconds, output or None on error).

    meter, a context manager, is entered around the call alone."""
    error = None
    with meter if meter is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            out = op.call()
        except (Exception, SystemExit) as exc:
            out, error = None, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
    if error is None:
        try:
            error = op.check(out)
        except Exception as exc:
            error = f"check raised {exc!r}"
    tally.record(op, error)
    return elapsed, out


def cli_call(prog: SimpleNamespace, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call() -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = prog.cli.main(argv)
        return rc, buf.getvalue()

    return call


def comparable(out: object) -> object:
    """An output with its timing field removed, for traced/untraced equality."""
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str):
        rc, text = out
        if text.startswith("{") and '"elapsed"' in text:
            payload = json.loads(text)
            payload.pop("elapsed", None)
            return rc, payload
    return out


# -- workloads ----------------------------------------------------------------


class Workload:
    """Set-up, jobs and metric grouping of one workload.

    job1 and job2 group the jobs into the two end-to-end timings; named
    maps each job to the metric name the README uses for it.
    """

    name: str
    job1: tuple[str, ...]
    job2: tuple[str, ...]
    named: dict[str, str]
    probe_words = False  # scale timings by the multi-word-integer probe

    def setup(self, prog: SimpleNamespace, seed: int) -> SimpleNamespace:
        """State with at least .ops, the operations of one round."""
        raise NotImplementedError

    def round_ops(self, state, rng: random.Random) -> list[Op]:
        ops = list(state.ops)
        rng.shuffle(ops)
        return ops

    def final_ops(self, state) -> list[Op]:
        """Untimed checks run once after the measured rounds."""
        return []

    def direct_calls(self, state) -> dict[str, int]:
        """Span name -> calls the benchmark makes itself in one round."""
        return {"cli.main": len(state.ops)}

    def expected_counts(self, state) -> dict[str, int]:
        """Traced counts of one round, computed without the program."""
        return {}


def _json_check(expected_text: str) -> Callable[[object], str | None]:
    def check(out):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        return None if text == expected_text else "output differs from the golden table"

    return check


class Catalog(Workload):
    """Rebuild table1, table2 and the table3 scan prefix up to n_max."""

    name = "catalog"
    job1 = ("table1", "table2")
    job2 = ("scan",)
    named = {"table1_s": "table1", "table2_s": "table2", "scan_s": "scan"}
    probe_words = True  # Fraction arithmetic and ternary moments on multi-word integers
    TABLE1 = ("2", "4", "71")
    TABLE2 = ("3", "3", "39")
    # long enough to be the heavier job, short enough for 3+ rounds in 20 s
    N_MAX = 140

    def setup(self, prog, seed):
        table3 = (DATA / "table3.json").read_text(encoding="utf-8")
        expected_scan = oracle.scan_expected(table3, self.N_MAX)

        def check_scan(out):
            rc, text = out
            if rc != 0:
                return f"exit code {rc}"
            return None if json.loads(text) == expected_scan else "rows differ from table3.json"

        argv = {
            "table1": ["enumerate", "--q", self.TABLE1[0], "--n-min", self.TABLE1[1],
                       "--n-max", self.TABLE1[2], "--format", "json"],
            "table2": ["enumerate", "--q", self.TABLE2[0], "--n-min", self.TABLE2[1],
                       "--n-max", self.TABLE2[2], "--format", "json"],
            "scan": ["scan-counterexamples", "--n-max", str(self.N_MAX), "--format", "json"],
        }
        checks = {
            "table1": _json_check((DATA / "table1.json").read_text(encoding="utf-8")),
            "table2": _json_check((DATA / "table2.json").read_text(encoding="utf-8")),
            "scan": check_scan,
        }
        ops = [Op(job, " ".join(a), cli_call(prog, a), checks[job]) for job, a in argv.items()]
        return SimpleNamespace(ops=ops, scan_rows=len(expected_scan))

    def expected_counts(self, state):
        t1 = range(int(self.TABLE1[1]), int(self.TABLE1[2]) + 1)
        t2 = range(int(self.TABLE2[1]), int(self.TABLE2[2]) + 1)
        scan = oracle.scan_lengths(self.N_MAX)
        return {
            "feasibility.evaluate_candidate.calls": oracle.admissibility_cases(2, t1)
            + oracle.admissibility_cases(3, t2)
            + oracle.admissibility_cases(2, scan, skip_midpoint=True),
            "feasibility.weight_triples.calls": len(t1) + len(t2) + len(scan),
            "feasibility.load_annotations.calls": 2,
            "feasibility.scan_survivors": state.scan_rows,
        }


class Codes(Workload):
    """verify --graph --tss and graph --s 9 over every shipped fixture."""

    name = "codes"
    job1 = ("verify",)
    job2 = ("graph",)
    named = {"verify_s": "verify", "graph_s": "graph"}
    S = 9

    def __init__(self, limit: int | None = None):
        self.limit = limit

    def setup(self, prog, seed):
        paths = sorted((DATA / "matrices").glob("*.txt"))[: self.limit]
        random.Random(seed).shuffle(paths)
        verify, graph = [], []
        for path in paths:
            name = path.name
            oracle.fixture_params(name)
            verify.append(Op(
                "verify", name,
                cli_call(prog, ["verify", str(path), "--graph", "--tss"]),
                lambda out, name=name: oracle.check_verify_output(*out, name),
            ))
            graph.append(Op(
                "graph", name,
                cli_call(prog, ["graph", str(path), "--s", str(self.S)]),
                lambda out, name=name: oracle.check_graph_output(*out, name, self.S),
            ))
        return SimpleNamespace(names=[p.name for p in paths], ops=verify + graph)

    def round_ops(self, state, rng):
        return state.ops  # already in seeded order

    def expected_counts(self, state):
        params = [oracle.fixture_params(n) for n in state.names]
        return {
            "swrg.coset_graph.calls": 2 * len(params),
            "swrg.tss_check.calls": len(params),
            "matrixio.parse.calls": 2 * len(params),
            "code.codewords_q2": sum(2**k for q, n, k, _ in params if q == 2),
            "code.codewords_q3": sum(3**k for q, n, k, _ in params if q == 3),
            "swrg.tss_triples": sum((n * (q - 1)) ** 3 for q, n, k, _ in params),
        }


class Enumeration(Workload):
    """Weight distributions and projectivity of seeded random codes."""

    name = "enumeration"
    job1 = ("q2",)
    job2 = ("q3",)
    named = {"q2_s": "q2", "q3_s": "q3"}
    probe_words = True
    # (q, n, k): binary lengths on both sides of 64, ternary dimensions 10-11
    SPECS = (
        (2, 48, 17), (2, 64, 18), (2, 96, 18), (2, 200, 20),
        (3, 24, 10), (3, 40, 10), (3, 45, 11),
    )

    def __init__(self, specs: tuple[tuple[int, int, int], ...] = SPECS):
        self.specs = specs

    @staticmethod
    def generate(specs, seed: int) -> list[tuple[int, list[list[int]]]]:
        """Seeded full-rank generator matrices; rank-deficient draws are redrawn."""
        rng = random.Random(seed)
        out = []
        for q, n, k in specs:
            while True:
                rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
                if oracle.gf_rank(rows, q) == k:
                    break
            out.append((q, rows))
        return out

    def setup(self, prog, seed):
        ops = []
        for q, rows in self.generate(self.specs, seed):
            label = f"[{len(rows[0])},{len(rows)}]_{q}"
            ops.append(Op(f"q{q}", label, self._call(prog, q, rows), self._check(q, rows)))
        return SimpleNamespace(ops=ops)

    @staticmethod
    def _call(prog, q, rows):
        def call():
            field = prog.gfmat.PrimeField(q)
            code = prog.code.LinearCode(field, prog.gfmat.FieldMatrix.from_rows(field, rows))
            dist = code.weight_distribution()
            projective, mult = code.is_projective()
            return dist.as_dict(), projective, mult.zero_positions

        return call

    @staticmethod
    def _check(q, rows):
        expected_projectivity = oracle.projectivity(rows, q)

        def check(out):
            counts, projective, zero = out
            if (projective, zero) != expected_projectivity:
                return f"projectivity {(projective, zero)}, expected {expected_projectivity}"
            return oracle.check_weight_distribution(counts, rows, q)

        return check

    def direct_calls(self, state):
        return {"code.weight_distribution": len(state.ops), "code.is_projective": len(state.ops)}

    def expected_counts(self, state):
        return {
            "code.weight_distribution.calls": len(self.specs),
            "code.codewords_q2": sum(2**k for q, n, k in self.specs if q == 2),
            "code.codewords_q3": sum(3**k for q, n, k in self.specs if q == 3),
        }


class Curve(Workload):
    """curve --d D --bound B for odd D = 3, 5 and even D = 4."""

    name = "curve"
    job1 = ("odd",)
    job2 = ("even",)
    named = {"odd_s": "odd", "even_s": "even"}
    DEGREES = (3, 4, 5)
    BOUND = 100
    # the brute-force box oracle compares whole point sets at this bound
    ORACLE_BOUND = 16

    def _op(self, prog, d, bound):
        argv = ["curve", "--d", str(d), "--bound", str(bound)]
        return Op(
            "odd" if d % 2 else "even", " ".join(argv), cli_call(prog, argv),
            lambda out: oracle.check_curve_output(*out, d, bound),
        )

    def setup(self, prog, seed):
        return SimpleNamespace(
            prog=prog, ops=[self._op(prog, d, self.BOUND) for d in self.DEGREES]
        )

    def final_ops(self, state):
        ops = []
        for d in self.DEGREES:
            op = self._op(state.prog, d, self.ORACLE_BOUND)
            ops.append(Op("box", op.label, op.call, self._box_check(op.check, d)))
        return ops

    def _box_check(self, check, d):
        def box(out):
            error = check(out)
            if error is not None:
                return error
            got = json.loads(out[1])["points"]
            want = oracle.box_points(d, self.ORACLE_BOUND)
            return None if got == want else f"points {got}, box scan finds {want}"

        return box

    def expected_counts(self, state):
        return {
            "curve.search_integral_points.calls": len(self.DEGREES),
            "curve.box_cells": len(self.DEGREES) * oracle.box_cells(self.BOUND),
        }


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "catalog": Catalog,
    "codes": Codes,
    "enumeration": Enumeration,
    "curve": Curve,
}

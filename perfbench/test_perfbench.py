"""Tests of the benchmark itself: failure counting, seeded inputs, the tracer,
and the refusal to run without the program's sources."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_oracles as oracle
import bench_trace
import bench_workloads as bw

HERE = Path(__file__).resolve().parent
SMALL_SPECS = ((2, 20, 8), (2, 70, 9), (3, 12, 5))


@pytest.fixture(scope="module")
def prog():
    return bw.load_program(fresh=False)


def bindings() -> dict[tuple[str, str], int]:
    """id of every module-level and class-level binding in the program."""
    out = {}
    for name, mod in bench_trace._program_modules().items():
        for key, value in vars(mod).items():
            out[(name, key)] = id(value)
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[(f"{name}.{key}", attr)] = id(member)
    return out


def test_wrong_output_exception_and_broken_check_are_failures(prog):
    call = bw.cli_call(prog, ["curve", "--d", "3", "--bound", "5"])
    truth = oracle.box_points(3, 5)
    corrupted = truth[1:]

    def expect(points):
        return lambda out: None if json.loads(out[1])["points"] == points else "differs"

    ops = [
        bw.Op("odd", "right", call, expect(truth)),
        bw.Op("odd", "corrupted expectation", call, expect(corrupted)),
        bw.Op("odd", "raises", lambda: 1 // 0, lambda out: None),
        bw.Op("odd", "usage error", bw.cli_call(prog, ["curve", "--d"]), lambda out: None),
        bw.Op("odd", "check raises", call, lambda out: json.loads("not json")),
    ]
    tally = bw.Tally()
    for op in ops:
        bw.run_op(op, tally)
    assert (tally.attempted, tally.failed) == (5, 4)
    assert [f.split(":")[0] for f in tally.failures] == [
        "odd corrupted expectation", "odd raises", "odd usage error", "odd check raises"
    ]


def test_same_seed_same_matrices_and_exact_counts(prog):
    assert bw.Enumeration.generate(SMALL_SPECS, 11) == bw.Enumeration.generate(SMALL_SPECS, 11)
    workload = bw.Enumeration(SMALL_SPECS)
    outputs = []
    for _ in range(2):
        tally = bw.Tally()
        outputs.append([bw.run_op(op, tally)[1] for op in workload.setup(prog, 11).ops])
        assert (tally.attempted, tally.failed) == (len(SMALL_SPECS), 0)
    assert outputs[0] == outputs[1]


def test_different_seed_different_matrices():
    assert bw.Enumeration.generate(SMALL_SPECS, 11) != bw.Enumeration.generate(SMALL_SPECS, 12)


def test_tracer_keeps_outputs_restores_names_and_repeats_counts(prog):
    workload = bw.Codes(limit=3)
    state = workload.setup(prog, 0)
    tally = bw.Tally()
    before = bindings()
    untraced = [bw.comparable(bw.run_op(op, tally)[1]) for op in state.ops]
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        originals = [prog.feasibility.three_weight_solve, prog.matrixio.parse_matrix_file]
        assert prog.transform.three_weight_solve is not originals[0]
        assert sys.modules["threeweight"].parse_matrix_file is not originals[1]
        counts = []
        for _ in range(2):
            tracer.reset()
            traced = [bw.comparable(bw.run_op(op, tally)[1]) for op in state.ops]
            assert traced == untraced
            counts.append(tracer.call_counts())
            assert tracer.root_calls("cli.main") == len(state.ops)
    finally:
        assert tracer.restore() == []
    assert bindings() == before
    assert counts[0] == counts[1]
    assert tally.failed == 0 and not tracer.missing and not tracer.hook_errors
    metrics = tracer.per_layer_metrics(0.0)
    assert set(metrics) == set(bench_trace.PER_LAYER)
    assert metrics["layer.swrg.self_s"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=ignore)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "curve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

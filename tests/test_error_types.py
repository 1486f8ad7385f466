"""Every error the library raises belongs to the `CodesError` hierarchy."""

from __future__ import annotations

import ast
from importlib import resources

import pytest

from threeweight import errors
from threeweight.cli import emit_report
from threeweight.code import parity_check_code, reed_muller, simplex
from threeweight.curve import CurveQuery, monomial_sum, normalize_point, search_integral_points, search_report, vandam_lhs
from threeweight.errors import CodesError
from threeweight.feasibility import (
    Candidate,
    counterexample_scan,
    dodunekov_check,
    dodunekov_levels,
    enumerate_candidates,
    evaluate_candidate,
    feasibility_report,
    hamming_bound_ok,
    hamming_floor,
    kn_witness,
    length_candidates,
    weight_triples,
)
from threeweight.gfmat import GF2, FieldMatrix, PrimeField
from threeweight.matrixio import parse_matrix_file
from threeweight.swrg import CosetGraph, is_s_swrg, tss_check, vertex_guard_excess
from threeweight.transform import (
    dual_distribution,
    dual_numerators,
    dual_sequence_exact,
    krawtchouk_column,
    solve_three_weight_general,
    three_weight_solve,
)
from threeweight.triples import binary_triples, ternary_triples

from kernel_triples import length_triples
from swrg_oracles import eigenvalues_from_weights
from transform_oracles import DualLanes, pmt_frequencies, solution_counts

ARGUMENT_ERRORS = {
    "counts of a non-integral solution": lambda: solution_counts(three_weight_solve(5, 3, 1, 2, 4)),
    "unordered weights": lambda: three_weight_solve(8, 3, 6, 4, 2),
    "dimension below 2": lambda: three_weight_solve(8, 1, 2, 4, 6),
    # the symmetric-triple and claimed-eigenvalue oracles reject their
    # domains with the same errors
    "pmt with t < 1": lambda: pmt_frequencies(8, 3, 0),
    "pmt with odd n": lambda: pmt_frequencies(7, 3, 1),
    "pmt weights out of range": lambda: pmt_frequencies(8, 3, 5),
    "zero connection vector": lambda: CosetGraph(3, 2, [0], {}),
    "negative dimension, empty Omega": lambda: list(CosetGraph(2, -1, [], {}).neighbour_rows()),
    # a spectrum without the degree has no trivial character to set apart
    "walk test without the degree": lambda: is_s_swrg(CosetGraph(2, 2, [1, 2, 3], {-1: 4}), 3),
    "triple sums without the degree": lambda: tss_check(CosetGraph(2, 2, [1, 2, 3], {-1: 4})),
    # the packed dual test is a test oracle now, and keeps its errors
    "dual lanes of length 0": lambda: DualLanes(2, 0),
    "divisibility test at a < 0": lambda: dodunekov_check(Candidate(2, 7, 3, (3, 4, 7), (4, 3, 0), 0, 1), -1),
    # these returned a value: float walk constants, a verdict for GF(1), a
    # column for a negative length and an empty list for GF(5)
    "walk test at a float length": lambda: is_s_swrg(CosetGraph(2, 2, [1, 2, 3], {3: 1, -1: 3}), 3.0),
    "sphere packing over q = 1": lambda: hamming_bound_ok(4, 2, 3, 1),
    "Krawtchouk column of negative length": lambda: krawtchouk_column(1, -2, 2, 3),
    "length kernel over q = 5": lambda: list(length_candidates(5, 10, length_triples(5, 10))),
    # these returned a value: GF(2.0), whose coset graph counts 4.0 vertices,
    # and curve queries that later raised a bare TypeError from range()
    "field order 2.0": lambda: PrimeField(2.0),
    "coset graph over GF(2.0)": lambda: CosetGraph(2.0, 2, [1, 2, 3], {3: 1, -1: 3}),
    "curve query of degree 3.5": lambda: CurveQuery(3.5, 10),
    "curve query to bound 10.5": lambda: CurveQuery(3, 10.5),
    # these returned floats: a Krawtchouk column [1, 8.0, 27.0, 48.0] and a
    # coset graph of 4.0 vertices and degree 2.0
    "Krawtchouk column of float length": lambda: krawtchouk_column(1, 10.0, 2, 3),
    "Krawtchouk column at a float point": lambda: krawtchouk_column(1.0, 10, 2, 3),
    "coset graph of float dimension": lambda: CosetGraph(2, 2.0, [1, 2, 3], {3: 1, -1: 3}).summary(),
    # these ended in a bare TypeError or AttributeError
    "binary enumeration to a float bound": lambda: enumerate_candidates(2, 4, 71.0),
    "ternary enumeration to a float bound": lambda: enumerate_candidates(3, 3, 39.0),
    "scan to a float bound": lambda: counterexample_scan(140.0),
    "report from a float length": lambda: feasibility_report(2, 4.0, 71),
    "length kernel at a float length": lambda: list(length_candidates(2, 24.0, length_triples(2, 24))),
    "length kernel over GF(2.0)": lambda: list(length_candidates(2.0, 24, length_triples(2, 24))),
    "weight triples of a float length": lambda: weight_triples(2, 24.0),
    "three-weight solve at a float length": lambda: three_weight_solve(8.0, 3, 2, 4, 6),
    "sphere packing at a float length": lambda: hamming_bound_ok(4.0, 2, 3, 2),
    "simplex of float dimension": lambda: simplex(2, 3.0),
    "dual lanes of a float length": lambda: DualLanes(2, 4.0),
    "candidate of a float length": lambda: evaluate_candidate(2, 24.0, 5, (10, 12, 14)),
    "Reed-Muller code of float dimension": lambda: reed_muller(2, 3.0),
    "parity-check code of float length": lambda: parity_check_code(4.0),
    # these returned a value (4 for either Hamming floor, (2, []) for the
    # first binary length) or ended in a bare TypeError; the triple
    # generators now raise at their first next()
    "dual numerators of a float length": lambda: dual_numerators({1: 1}, 3.0, 2),
    "dual test of a float dimension": lambda: dual_sequence_exact(2, 4, 2.0, (1, 2, 3), (0, 1, 2)),
    "Hamming floor of a float length": lambda: hamming_floor(2, 10.0),
    "Hamming floor over GF(2.0)": lambda: hamming_floor(2.0, 10),
    "binary triples to a float bound": lambda: next(binary_triples(1, 10.0)),
    "ternary triples of a float length": lambda: next(ternary_triples(9.0)),
    # these returned a value (-12.0 and None) or ended in a bare TypeError
    "van Dam identity at a float s": lambda: vandam_lhs(3.0, 1, 2, 3),
    "monomial sum of float degree": lambda: monomial_sum(2.0, 1, 2, 3),
    "projective point with a float coordinate": lambda: normalize_point((1.5, 2, 3)),
    "vertex guard at a float dimension": lambda: vertex_guard_excess(2, 3.0),
    # these returned floats (90.0 and -4.875) or ended in a bare ValueError
    # or AttributeError
    "monomial sum at a float coordinate": lambda: monomial_sum(3, 1.0, 2, 3),
    "van Dam identity at a float eigenvalue": lambda: vandam_lhs(3, 1.5, 2, 3),
    "projective point of two coordinates": lambda: normalize_point((1, 2)),
    "curve search of a plain tuple": lambda: search_integral_points((3, 100)),
    "curve report of None": lambda: search_report(None),
    # these returned floats ([1, 3.0, 0.0, -4.0] and [1, 1.0, -1.0, -1]) or
    # ended in a bare TypeError; a matrix file at fd 0 would read stdin
    "Krawtchouk column over GF(3.0)": lambda: krawtchouk_column(1, 3, 3.0, 3),
    "dual numerators over GF(2.0)": lambda: dual_numerators({1: 1}, 3, 2.0),
    # these returned [0, 0, 0, 0] or ended in a bare TypeError: with no
    # nonzero count no Krawtchouk column was stepped, so nothing checked q
    "dual numerators of no counts over GF(2.0)": lambda: dual_numerators({}, 3, 2.0),
    "dual numerators of a zero count over GF(7.5)": lambda: dual_numerators({1: 0}, 3, 7.5),
    "dual distribution of no counts over GF(2.0)": lambda: dual_distribution({}, 4, 2.0, 2),
    "divisibility levels to a float a": lambda: dodunekov_levels(3.0),
    "witness at a float a": lambda: kn_witness(2.0),
    "matrix file at a file descriptor": lambda: parse_matrix_file(0),
    "no columns": lambda: FieldMatrix(GF2, (), 0),
    "ragged packed rows": lambda: FieldMatrix(GF2, (b"\x00",), 2),
    "ragged rows": lambda: FieldMatrix.from_rows(GF2, [[1, 0], [1]]),
    "no rows": lambda: FieldMatrix.from_rows(GF2, []),
    "no columns given": lambda: FieldMatrix.from_columns(GF2, []),
    "ragged columns": lambda: FieldMatrix.from_columns(GF2, [[1, 0], [1]]),
    "weights without w_0": lambda: eigenvalues_from_weights(2, 8, (4, 6)),
    "unknown report format": lambda: emit_report([], "xml"),
    # these returned a value (a candidate over GF(5) None unless its
    # frequencies reached the dual test, the vertex guard over GF(2.0) None,
    # the general frequencies floats) or ended in a bare TypeError
    "candidate over GF(5)": lambda: evaluate_candidate(5, 10, 3, (6, 8, 10)),
    "candidate of a float weight": lambda: evaluate_candidate(2, 24, 5, (10.0, 12, 14)),
    "Krawtchouk column to a float lane": lambda: krawtchouk_column(1, 6, 2, 3.0),
    "general frequencies at a float length": lambda: solve_three_weight_general(8.0, 3, 2, 2, 4, 6),
    "general frequencies at k = -5": lambda: solve_three_weight_general(8, -5, 2, 2, 4, 6),
    "general frequencies over GF(2.0)": lambda: solve_three_weight_general(8, 3, 2.0, 2, 4, 6),
    # these ended in a bare ZeroDivisionError or returned (0, 0, 0) and
    # (-45, 111, -75)
    "general frequencies over GF(0)": lambda: solve_three_weight_general(8, 3, 0, 2, 4, 6),
    "general frequencies over GF(1)": lambda: solve_three_weight_general(8, 3, 1, 2, 4, 6),
    "general frequencies over GF(-2)": lambda: solve_three_weight_general(8, 3, -2, 2, 4, 6),
    "dual distribution of a float dimension": lambda: dual_distribution({0: 1, 2: 3}, 4, 2, 2.0),
    "dual distribution at k = -3": lambda: dual_distribution({0: 1, 2: 3}, 4, 2, -3),
    "vertex guard over GF(2.0)": lambda: vertex_guard_excess(2.0, 3),
    # these returned [1, -7, 7, -1], [1, 5, -5, -1] and [1]: a count at a
    # weight outside 0..n was summed as if it had a meaning
    "dual numerators of a weight past the length": lambda: dual_numerators({5: 1}, 3, 2),
    "dual numerators of a negative weight": lambda: dual_numerators({-1: 1}, 3, 2),
    "dual numerators of a weight past length 0": lambda: dual_numerators({1: 1}, 0, 3),
    "dual distribution of a weight past the length": lambda: dual_distribution({0: 1, 5: 1}, 3, 2, 1),
    # this ended in a bare TypeError from the parity of a float weight
    "dual numerators of a float weight": lambda: dual_numerators({1.0: 1}, 3, 2),
    # these returned True (q^k = 0.5, so a float room of 2048.0) and 1
    "sphere packing at k = -1": lambda: hamming_bound_ok(10, -1, 3, 2),
    "Hamming floor over GF(-1)": lambda: hamming_floor(-1, 24),
    # these returned [], [], 1, [] (through that floor) and (111, -177, 73):
    # a length below 0 has no meaning
    "dual numerators of a negative length": lambda: dual_numerators({}, -1, 2),
    "dual distribution of a negative length": lambda: dual_distribution({}, -3, 3, 0),
    "Hamming floor of a negative length": lambda: hamming_floor(2, -5),
    "length kernel at a negative length": lambda: list(length_candidates(3, -3, [])),
    "general frequencies at a negative length": lambda: solve_three_weight_general(-6, 3, 2, 1, 2, 3),
}


@pytest.mark.parametrize("call", ARGUMENT_ERRORS.values(), ids=ARGUMENT_ERRORS.keys())
def test_argument_errors_are_codes_errors(call):
    # each of these once raised a bare ValueError, ZeroDivisionError,
    # KeyError, AttributeError or TypeError
    with pytest.raises(CodesError):
        call()


# argparse turns an ArgumentTypeError from a type function into exit code 2
ALLOWED_FOREIGN_RAISES = {("cli.py", "_parse_triple", "argparse.ArgumentTypeError")}

PACKAGE_ERRORS = {
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, CodesError)
}


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return ast.unparse(exc) if exc is not None else None


def _raises(tree: ast.AST, function: str = ""):
    """(enclosing function, raised name) for every raise statement."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Raise):
            yield function, _raised_name(node)
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _raises(node, inner)


def test_every_raise_names_a_package_error():
    root = resources.files("threeweight")
    found = []
    for path in sorted(root.iterdir(), key=lambda p: p.name):
        if not path.name.endswith(".py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=path.name)
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "errors"
            for alias in node.names
        }
        for function, name in _raises(tree):
            if name in imported & PACKAGE_ERRORS:
                continue
            if (path.name, function, name) not in ALLOWED_FOREIGN_RAISES:
                found.append(f"{path.name}:{function}: raise {name}")
    assert found == []

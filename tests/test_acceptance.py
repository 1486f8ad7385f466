"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is exact (integer equality) and the stated
runtime budgets are asserted.
"""

from __future__ import annotations

import itertools
import random
import time

from threeweight.cli import main as cli_main
from threeweight.code import LinearCode, golay23
from threeweight.curve import CurveQuery, search_integral_points
from threeweight.feasibility import counterexample_scan, feasibility_report, kn_witness
from threeweight.gfmat import GF2, FieldMatrix
from threeweight.matrixio import parse_matrix_file
from threeweight.swrg import (
    coset_graph,
    is_s_swrg,
    tss_check,
    verify_spectrum,
)
from threeweight.transform import dual_distribution, three_weight_solve

from catalog import TABLE1, TABLE2, TABLE3, midpoint_gap
from code_oracles import columns, theorem_4delta
from conftest import data_path
from curve_oracles import identity_check
from swrg_oracles import (
    direct_triple_counts,
    eigenvalues_from_weights,
    omega_from_code,
    spectrum_by_annihilator,
)
from transform_oracles import pmt_frequencies


def _verdict_of(comment: str) -> str:
    if comment.startswith("None"):
        return "excluded"
    if comment == "Open":
        return "open"
    return "realized"


def test_criterion_1_table1_reproduction(capsys):
    start = time.monotonic()
    rows = feasibility_report(2, 4, 71)
    elapsed = time.monotonic() - start
    got = {(c.n, c.k, c.weights): c for c in rows}
    assert len(rows) == len(TABLE1) == 78
    lemma_rows = set()
    for n, k, w, freqs, comment in TABLE1:
        c = got[(n, k, w)]
        assert c.frequencies == freqs
        assert c.verdict == _verdict_of(comment)
        if c.verdict == "excluded" and any(r.startswith("dodunekov-simonis") for r in c.reasons()):
            lemma_rows.add((n, k))
    # the divisibility-test exclusions among the catalog's attributions
    assert {(16, 7), (20, 6), (24, 6), (32, 10), (40, 6)} <= lemma_rows
    assert lemma_rows - {(16, 7), (20, 6), (24, 6), (32, 10), (40, 6), (68, 9)} == {
        (64, 12), (64, 13), (64, 14), (64, 15),
    }  # the length-64 rows also fail the dimension bound, their named reason:
    for k in range(12, 16):
        assert any(
            r.startswith("four-delta-dimension") for r in got[(64, k, (16, 32, 48))].reasons()
        )
    assert any(r.startswith("length-mod-4") for r in got[(58, 8, (24, 31, 32))].reasons())
    assert elapsed < 300
    print(f"ACCEPTANCE 1 (table 1 reproduction, {elapsed:.1f}s): PASS")


def test_criterion_2_table2_reproduction():
    start = time.monotonic()
    rows = feasibility_report(3, 3, 39)
    elapsed = time.monotonic() - start
    assert len(rows) == len(TABLE2) == 18
    got = {(c.n, c.k, c.weights): c for c in rows}
    for n, k, w, freqs, comment in TABLE2:
        c = got[(n, k, w)]
        assert c.frequencies == freqs
        assert c.verdict == _verdict_of(comment)
    assert elapsed < 300
    print(f"ACCEPTANCE 2 (table 2 reproduction, {elapsed:.1f}s): PASS")


def test_criterion_3_table3_reproduction():
    rows = counterexample_scan(256)
    got = [(c.n, c.weights, c.y, c.frequencies, c.b3) for c in rows]
    assert got == [tuple(r) for r in TABLE3]
    assert (112, (50, 54, 64), 128, (48, 336, 127), 322) in got
    assert (240, (110, 122, 128), 256, (288, 480, 255), 2450) in got
    print("ACCEPTANCE 3 (counterexample scan): PASS")


def test_criterion_4_fixture_corpus(fixture_codes):
    assert len(fixture_codes) == 74
    for name, code, (weights, freqs) in fixture_codes:
        q, n, k = code.params()
        projective, _ = code.is_projective()
        assert projective, name
        dist = code.weight_distribution()
        assert dist.nonzero_weights() == weights, name
        assert tuple(dist.frequency(w) for w in weights) == freqs, name
        assert sum(weights) * q == 3 * n * (q - 1), name
        assert weights[1] * q == n * (q - 1), name
    print("ACCEPTANCE 4 (fixture corpus): PASS")


def test_criterion_5_graph_layer(fixture_codes):
    start = time.monotonic()
    for name, code, (weights, _) in fixture_codes:
        q, n, k = code.params()
        assert q**k <= 1 << 14
        graph = coset_graph(code)
        assert graph.degree == n * (q - 1), name
        claim = eigenvalues_from_weights(q, n, (0,) + weights)
        assert verify_spectrum(graph) == claim, name
        assert spectrum_by_annihilator(graph, claim), name
        walk = is_s_swrg(graph, 3)
        assert walk.is_swrg, name
        omega = omega_from_code(code)
        inst = tss_check(graph)
        assert inst.consistent, name
        direct = direct_triple_counts(omega, q, k)
        omega_set = set(graph.omega)
        assert all(direct[h] == inst.sigma0 for h in omega_set), name
        rest = [h for h in range(1, graph.nvertices) if h not in omega_set]
        assert all(direct[h] == inst.sigma1 for h in rest), name
        assert walk.constants[1] == inst.sigma0, name
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"ACCEPTANCE 5 (graph layer on the corpus, {elapsed:.1f}s): PASS")


def test_criterion_6_named_constructions():
    for a in (3, 4):
        delta = 1 << a
        code = theorem_4delta(a)
        dist = code.weight_distribution()
        assert dist.frequency(delta) == 4 * delta - 3
        assert dist.frequency(2 * delta) == 8 * delta * delta - 8 * delta + 3
        assert dist.frequency(3 * delta) == 4 * delta - 1
    w2 = kn_witness(2)
    d2 = w2.witness.weight_distribution()
    assert (w2.witness.n, w2.witness.k) == (56, 6)
    assert tuple(d2.frequency(w) for w in (26, 28, 30)) == (7, 35, 21)
    w3 = kn_witness(3)
    assert (w3.witness.n, w3.witness.k) == (2024, 11)
    assert w3.witness.weight_distribution().nonzero_weights() == (1008, 1012, 1016)
    even = golay23().even_weight_subcode()
    assert even.weight_distribution().as_dict() == {0: 1, 8: 506, 12: 1288, 16: 253}
    print("ACCEPTANCE 6 (named constructions): PASS")


def test_criterion_7_curve_layer():
    start = time.monotonic()
    obvious = [(0, 1, -1), (1, -1, 0), (1, 0, -1)]
    for d, bound in ((3, 100), (5, 100), (7, 100), (9, 60)):
        pts = search_integral_points(CurveQuery(d, bound))
        assert pts == obvious, (d, bound)
    rng = random.Random(20250810)
    trials = 0
    for s in range(2, 12):
        for _ in range(1000):
            args = [rng.randint(-(10**6), 10**6) for _ in range(3)]
            assert identity_check(s, *args)
            trials += 1
    assert trials == 10**4
    elapsed = time.monotonic() - start
    assert elapsed < 180
    print(f"ACCEPTANCE 7 (curve layer, {elapsed:.1f}s): PASS")


def test_criterion_8_property_suites(fixture_codes):
    # MacWilliams involution + dual integrality on the whole corpus
    for name, code, _ in fixture_codes:
        q, n, k = code.params()
        a = code.weight_distribution().as_dict()
        b = dual_distribution(a, n, q, k)
        assert b[0] == 1 and b[1] == 0 and b[2] == 0, name
        assert all(v.denominator == 1 and v >= 0 for v in b), name
        back = dual_distribution({i: int(v) for i, v in enumerate(b) if v}, n, q, n - k)
        assert [int(v) for v in back] == [a.get(i, 0) for i in range(n + 1)], name
    # pmt == general solve on 10^3 random valid inputs
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randrange(6, 400, 2)
        t = rng.randint(1, n // 2 - 1)
        k = rng.randint(3, 20)
        sol = pmt_frequencies(n, k, t)
        general = three_weight_solve(n, k, n // 2 - t, n // 2, n // 2 + t)
        assert sol.frequencies == general.frequencies and sol.b3 == general.b3
    # survivor frequency-difference identity
    for c in feasibility_report(2, 4, 71):
        if c.verdict != "excluded":
            t = midpoint_gap(c)
            assert t is not None
            assert c.frequencies[2] - c.frequencies[0] == c.n // (2 * t)
    print("ACCEPTANCE 8 (property suites): PASS")


def test_criterion_9_exhaustive_small_oracle():
    start = time.monotonic()
    points = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)][1:]
    qualifying = []
    for cols in itertools.combinations(points, 4):
        m = FieldMatrix.from_columns(GF2, cols)
        if m.rank() != 3:
            continue
        code = LinearCode(GF2, m)
        dist = code.weight_distribution()
        ws = dist.nonzero_weights()
        if len(ws) == 3 and sum(ws) * 2 == 3 * 4 and code.is_projective()[0]:
            qualifying.append(frozenset(cols))
            assert dist.as_dict() == {0: 1, 1: 1, 2: 3, 3: 3}
    # 28 column sets, all one orbit under basis changes: a single code up to
    # monomial equivalence (column permutations act trivially on sets)
    assert len(qualifying) == 28
    gl = [
        ms
        for ms in itertools.product(points, repeat=3)
        if FieldMatrix.from_rows(GF2, ms).rank() == 3
    ]
    assert len(gl) == 168

    def act(mat_rows, colset):
        m = FieldMatrix.from_rows(GF2, mat_rows)
        return frozenset(
            tuple(sum(m.to_rows()[i][j] * col[j] for j in range(3)) % 2 for i in range(3))
            for col in colset
        )

    canonical = parse_matrix_file(data_path("matrices/q2_n004_k03_w1_2_3.txt"))
    canon_set = frozenset(columns(canonical.generator))
    assert canon_set in qualifying
    orbit = {act(g, canon_set) for g in gl}
    assert orbit == set(qualifying)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 9 (unique [4,3] oracle, {elapsed:.2f}s): PASS")


def test_goldens_match_cli_output(capsys):
    # the shipped golden tables are byte-identical to fresh CLI runs
    for args, name in (
        (["enumerate", "--q", "2", "--n-min", "4", "--n-max", "71", "--format", "json"], "table1.json"),
        (["enumerate", "--q", "3", "--n-min", "3", "--n-max", "39", "--format", "json"], "table2.json"),
        (["scan-counterexamples", "--n-max", "256", "--format", "json"], "table3.json"),
    ):
        assert cli_main(args) == 0
        out = capsys.readouterr().out
        assert out == data_path(name).read_text("utf-8"), name
    print("GOLDEN FILES: PASS")

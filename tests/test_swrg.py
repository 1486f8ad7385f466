from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threeweight import code as code_module
from threeweight import swrg
from threeweight.cli import main as cli_main
from threeweight.code import parity_check_code, reed_muller, simplex
from threeweight.errors import CodesError, GuardExceeded, InvalidArgument, SelfCheckFailed
from threeweight.gfmat import GF2, FieldMatrix
from threeweight.code import LinearCode
from threeweight.matrixio import parse_matrix_file
from threeweight.swrg import (
    CosetGraph,
    TssInstance,
    coset_graph,
    is_s_swrg,
    tss_check,
    verify_spectrum,
    vertex_guard_excess,
)

from conftest import data_path, matrix_files
from swrg_oracles import (
    cayley_graph,
    closure_numerals,
    decode_vector,
    digitwise_add_table,
    direct_adjacency,
    direct_triple_counts,
    eigenvalues_from_weights,
    encode_vector,
    neighbors,
    omega_from_code,
    spectrum_by_annihilator,
    walk_class_constants_dense,
    walk_counts,
    walk_regularity,
)


@pytest.fixture(scope="module")
def code_8_4():
    return parse_matrix_file(data_path("matrices/q2_n008_k04_w2_4_6.txt"))


def test_coset_graph_basic(code_8_4):
    g = coset_graph(code_8_4)
    assert g.nvertices == 16 and g.degree == 8
    for v in (0, 3, 7):
        assert len(neighbors(g, v)) == 8


def test_coset_graph_requires_projectivity():
    rows = [r + r for r in simplex(2, 2).generator.to_rows()]
    rep = LinearCode(GF2, FieldMatrix.from_rows(GF2, rows))
    for _ in range(2):  # computed, then kept on the code
        with pytest.raises(InvalidArgument, match="projective"):
            coset_graph(rep)


def test_verify_canonicalises_each_column_once(capsys, monkeypatch):
    computed, passes = [], []
    compute, scalar_numerals = LinearCode.is_projective, code_module._scalar_numerals

    def counting_projectivity(self):
        if self._projectivity is None:
            computed.append(self)
        return compute(self)

    def counting_numerals(q, n, rows):
        passes.append(n)
        return scalar_numerals(q, n, rows)

    monkeypatch.setattr(LinearCode, "is_projective", counting_projectivity)
    monkeypatch.setattr(code_module, "_scalar_numerals", counting_numerals)
    path = data_path("matrices/q3_n009_k04_w3_6_9.txt")
    assert cli_main(["verify", str(path), "--graph", "--tss"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert len(computed) == 1  # coset_graph reuses verify's projectivity
    # one pass over the n columns keys their point classes, and Omega
    # reuses the numerals it kept
    assert passes == [9]


def test_verify_output_does_not_depend_on_kept_projectivity(capsys, monkeypatch):
    def run_all():
        outs = []
        for path in matrix_files():
            rc = cli_main(["verify", str(path), "--graph", "--tss"])
            outs.append((path.name, rc, capsys.readouterr()))
        return outs

    kept = run_all()
    compute = LinearCode.is_projective

    def recompute(self):
        self._projectivity = None
        return compute(self)

    monkeypatch.setattr(LinearCode, "is_projective", recompute)
    assert len(kept) == 74
    assert run_all() == kept


def test_omega_from_points_matches_column_oracle():
    # coset_graph reads Omega as numerals in one lane pass over the columns
    # and their multiples; the oracle closes each column under scalars and
    # encodes it digit by digit
    paths = matrix_files()
    assert len(paths) == 74
    for path in paths:
        code = parse_matrix_file(path)
        columns = tuple(sorted(encode_vector(v, code.q) for v in omega_from_code(code)))
        assert coset_graph(code).omega == columns, path.name


def test_coset_graph_degree_check_fires_on_a_corrupted_omega():
    # kept numerals that repeat a column lose one element of Omega
    code = simplex(2, 3)
    assert code.is_projective()[0]
    numerals = code.scalar_numerals()
    code._numerals = numerals[:1] + numerals[:1] + numerals[2:]
    with pytest.raises(SelfCheckFailed, match=re.escape("coset graph degree 6 != n(q-1) = 7")):
        coset_graph(code)


def test_coset_graph_guard():
    # the guard bounds the vertex-by-vertex work alone, not the graph
    g = CosetGraph(2, 15, [1], {1: 1 << 14, -1: 1 << 14})
    with pytest.raises(GuardExceeded):
        g.adjacency_lines()
    with pytest.raises(GuardExceeded):
        g.apply_adjacency([0] * g.nvertices)
    assert is_s_swrg(g, 3).is_swrg


def test_field_gate_runs_before_the_vertex_guard():
    # GF(5)^7 once got "q^k = 78125 vertices over the vertex guard": the
    # guard ran before the field order was checked
    with pytest.raises(InvalidArgument, match="field order 5"):
        CosetGraph(5, 7, [1], {})


def test_simplex_gives_complete_graph():
    g = coset_graph(simplex(2, 2))
    assert g.nvertices == 4 and g.degree == 3
    assert verify_spectrum(g) == (3, -1)
    assert spectrum_by_annihilator(g, (3, -1))


def test_complete_graph_over_gf3():
    # the 4 points of PG(1, 3) give K_9: every nonzero syndrome is adjacent to 0
    code = simplex(3, 2)
    g = coset_graph(code)
    assert g.degree == 8
    assert g.spectrum_multiplicities() == {8: 1, -1: 8}
    assert verify_spectrum(g) == (8, -1)
    assert spectrum_by_annihilator(g, (8, -1))
    omega = omega_from_code(code)
    inst = tss_check(g)
    # Omega is every nonzero syndrome, so only sigma0 is defined
    assert inst.consistent and inst.sigma1 is None
    direct = direct_triple_counts(omega, 3, 2)
    assert direct == walk_counts(g, 3) and inst.sigma0 == direct[1]


def test_eigenvalues_from_weights():
    assert eigenvalues_from_weights(2, 8, (0, 2, 4, 6)) == (8, 4, 0, -4)
    assert eigenvalues_from_weights(3, 9, (0, 3, 6, 9)) == (18, 9, 0, -9)
    with pytest.raises(InvalidArgument, match="distinct"):
        eigenvalues_from_weights(2, 8, (0, 2, 2, 6))


def test_eigenvalue_sum_vanishes_under_weight_sum_condition():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randrange(4, 200, 4)
        w2 = n // 2
        t = rng.randint(1, w2 - 1)
        claim = eigenvalues_from_weights(2, n, (0, w2 - t, w2, w2 + t))
        assert sum(claim[1:]) == 0


def test_verify_spectrum(code_8_4):
    g = coset_graph(code_8_4)
    claims = {
        eigenvalues_from_weights(2, 8, (0, 2, 4, 6)): True,
        (8, 4, 0, -2): False,
        # a strict superset claim fails the occurrence direction
        (8, 6, 4, 0, -4): False,
        # a strict subset fails containment; so does a claim without the degree
        (8, 4, -4): False,
        (4, 0, -4): False,
    }
    for claim, expected in claims.items():
        assert (verify_spectrum(g) == claim) is expected, claim
        assert spectrum_by_annihilator(g, claim) is expected, claim


@pytest.mark.parametrize("corrupt,moments", [
    # one vertex lost: the multiplicities no longer sum to q^k
    ({0: 10}, [15, 0, 128]),
    # one eigenvalue moved: trace(A) is no longer 0
    ({0: 10, 4: 2}, [16, 4, 144]),
    # traces 0 and 1 kept, trace(A^2) broken: what a repeated column gives
    ({0: 9, 4: 2, -4: 4}, [16, 0, 160]),
], ids=["count", "trace", "square-trace"])
def test_verify_spectrum_self_checks_raise(code_8_4, monkeypatch, corrupt, moments):
    g = coset_graph(code_8_4)
    assert g.spectrum_multiplicities() == {8: 1, 4: 1, 0: 11, -4: 3}
    spectrum = {**g.spectrum_multiplicities(), **corrupt}
    monkeypatch.setattr(CosetGraph, "spectrum_multiplicities", lambda self: dict(spectrum))
    with pytest.raises(SelfCheckFailed, match=re.escape(f"spectral moments 0..2 are {moments}")):
        verify_spectrum(g)


def test_walk_constant_gamma_must_be_an_integer():
    # a multiset with two nontrivial values always passes the line test; on
    # 16 vertices of degree 8 its gamma = (8^3 - 6 - 7*8) / 16 is not whole
    g = CosetGraph(2, 4, range(1, 9), {8: 1, 3: 5, -1: 10})
    with pytest.raises(SelfCheckFailed, match="gamma is not an integer"):
        is_s_swrg(g, 3)


def test_is_s_swrg_examples(code_8_4):
    g = coset_graph(code_8_4)
    assert is_s_swrg(g, 3).is_swrg  # weights sum to 12 = 3n/2
    pc = coset_graph(parity_check_code(6))
    res = is_s_swrg(pc, 3)
    assert not res.is_swrg and res.constants is None
    assert walk_regularity(pc, 3).witness is not None
    srg = coset_graph(reed_muller(2, 4))
    assert is_s_swrg(srg, 5).is_swrg
    with pytest.raises(ValueError):
        is_s_swrg(g, 4)
    with pytest.raises(CodesError):
        is_s_swrg(g, 2)
    with pytest.raises(GuardExceeded, match="walk length 11 over guard 9"):
        is_s_swrg(g, 11)


def test_is_s_swrg_witness_counts_differ():
    # the oracle's witness: the first and last element at an extreme count
    # once gave (1, 7), two elements with 19 walks each
    g = cayley_graph(2, 3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)])
    assert g.omega == (1, 2, 3, 5, 7)
    res = walk_regularity(g, 3)
    assert not res.is_swrg
    counts = walk_counts(g, 3)
    w1, w2 = res.witness
    assert counts[w1] != counts[w2]
    vals = [counts[h] for h in g.omega]
    assert (w1, w2) == (g.omega[vals.index(min(vals))], g.omega[vals.index(max(vals))])
    # the spectral test reaches the same verdict with no witness
    assert is_s_swrg(g, 3) == swrg.SwrgResult(False, 3, None)
    assert tss_check(g) == TssInstance(5, False, None, None)


def test_coset_graph_closes_points_under_scalars():
    # the point (1,) of F_3 spans the line {1, 2}: the triangle K_3, with
    # degree 2 and spectrum {2: 1, -1: 2}
    g = cayley_graph(3, 1, [(1,)])
    assert g.omega == (1, 2) and g.degree == 2
    assert g.spectrum_multiplicities() == {2: 1, -1: 2}
    assert spectrum_by_annihilator(g, (2, -1))
    # the constructor takes Omega as numerals, sorted and deduplicated
    assert CosetGraph(3, 2, [6, 1, 3, 2, 3], {}).omega == (1, 2, 3, 6)
    assert CosetGraph(2, 2, [3, 3], {}).omega == (3,)


def test_walk_constants_are_the_direct_3_walk_counts(code_8_4):
    g = coset_graph(code_8_4)
    first = is_s_swrg(g, 3)
    direct = direct_triple_counts(omega_from_code(code_8_4), 2, 4)
    assert walk_counts(g, 3) == direct
    outside = min(set(range(1, 16)) - set(g.omega))
    assert first.constants == (direct[0], direct[g.omega[0]], direct[outside])


@pytest.mark.parametrize("q,k,omega", [
    (2, 2, [1, 0]),  # the zero vector
    (2, 2, [3, -1]),  # a negative numeral
    (3, 2, [1, 2, 9]),  # q^k, one past the last vertex
    (2, 3, [8]),  # q^k over GF(2)
])
def test_coset_graph_rejects_omega_outside_the_group(q, k, omega):
    # an integer element past q^k once ended in a bare IndexError, and a
    # negative one was read as an index from the end; the sorted ends alone
    # are checked
    with pytest.raises(InvalidArgument, match=f"is not a nonzero vector of F_{q}\\^{k}"):
        CosetGraph(q, k, omega, {})


def test_vertex_guard_has_one_decision_and_one_message():
    assert vertex_guard_excess(2, 14) is None and vertex_guard_excess(3, 8) is None
    reason = vertex_guard_excess(2, 15)
    assert reason == "q^k = 32768 vertices over the vertex guard 16384"
    # the coset graph over the guard is built, and only its vertex-by-vertex
    # work raises
    g = coset_graph(reed_muller(2, 15))
    assert g.spectrum_multiplicities() == {1 << 14: 1, 0: (1 << 15) - 2, -(1 << 14): 1}
    assert tss_check(g) == TssInstance(1 << 14, True, 1 << 28, 0)
    with pytest.raises(GuardExceeded, match=re.escape(reason)):
        g.adjacency_lines()
    with pytest.raises(GuardExceeded, match=re.escape(reason)):
        g.apply_adjacency([0] * g.nvertices)


def test_tss_check_has_no_omega_cubed_guard():
    # |Omega|^3 = 2047^3 > 2^30 was once refused, though no route costs |Omega|^3
    m, n = 2047, 2048
    assert m**3 > 1 << 30
    inst = tss_check(cayley_graph(2, 11, [decode_vector(h, 2, 11) for h in range(1, n)]))
    # Omega is every nonzero vector, so A = J - I and A^3 = (n^2 - 3n + 3) J - I
    assert inst == TssInstance(m, True, n * n - 3 * n + 3, None)


@st.composite
def scalar_closed_omegas(draw):
    """(q, k, points, Omega): a random list of nonzero vectors of F_q^k,
    scalar multiples and repeats allowed, and Omega, its scalar closure,
    as sorted encoded elements."""
    q = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(0, q - 1)] * k).filter(any)
    points = draw(st.lists(vector, max_size=2 * q**k))
    return q, k, points, sorted(set(closure_numerals(q, points)))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.data())
def test_apply_adjacency_matches_direct_convolution(data):
    q, k, _, omega = data.draw(scalar_closed_omegas())
    g = CosetGraph(q, k, omega, {})
    vec = data.draw(st.lists(st.integers(-50, 50), min_size=q**k, max_size=q**k))
    assert g.apply_adjacency(vec) == direct_adjacency(g)(vec)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(scalar_closed_omegas())
def test_tss_matches_direct_triple_counts(case):
    q, k, points, omega = case
    g = cayley_graph(q, k, points)
    assert g.omega == tuple(omega)
    inst = tss_check(g)
    direct = direct_triple_counts((decode_vector(h, q, k) for h in omega), q, k)
    rest = set(range(1, q**k)) - set(omega)
    in_vals = {direct[h] for h in omega}
    out_vals = {direct[h] for h in rest}
    assert inst.size == len(omega)
    assert inst.consistent == (len(in_vals) <= 1 and len(out_vals) <= 1)
    if inst.consistent:
        assert inst.sigma0 == (in_vals.pop() if in_vals else None)
        assert inst.sigma1 == (out_vals.pop() if out_vals else None)
    else:
        assert (inst.sigma0, inst.sigma1) == (None, None)


def test_tss_full_point_set_symmetric():
    omega = [(0, 1), (1, 0), (1, 1)]
    inst = tss_check(cayley_graph(2, 2, omega))
    # every nonzero element lies in Omega, so the sigma1 class is empty and
    # the single constant sigma0 covers all of them symmetrically
    assert inst.consistent and inst.sigma0 == 7 and inst.sigma1 is None


def test_tss_from_code_and_convolution_oracle(code_8_4):
    omega = omega_from_code(code_8_4)
    g = coset_graph(code_8_4)
    inst = tss_check(g)
    assert inst.consistent
    direct = direct_triple_counts(omega, 2, 4)
    assert walk_counts(g, 3) == direct
    omega_set = set(g.omega)
    assert all(direct[h] == inst.sigma0 for h in omega_set)
    assert all(
        direct[h] == inst.sigma1 for h in range(1, 16) if h not in omega_set
    )
    walk = is_s_swrg(g, 3)
    assert walk.constants == (direct[0], inst.sigma0, inst.sigma1)


def test_tss_inconsistent_for_bad_weight_sum():
    code = parity_check_code(6)
    omega = omega_from_code(code)
    g = coset_graph(code)
    inst = tss_check(g)
    assert inst == TssInstance(6, False, None, None)
    direct = direct_triple_counts(omega, 2, 5)
    w1, w2 = walk_regularity(g, 3).witness
    assert direct[w1] != direct[w2] and (w1 in g.omega) == (w2 in g.omega)


def test_tss_rejects_the_zero_vector_and_closes_a_point():
    for q in (2, 3):
        with pytest.raises(InvalidArgument, match="is not a nonzero vector"):
            tss_check(cayley_graph(q, 2, [(1, 0), (0, 0)]))
    # the point (1, 0, 0) of F_3^3 stands for the line {(1, 0, 0), (2, 0, 0)}
    inst = tss_check(cayley_graph(3, 3, [(1, 0, 0)]))
    direct = direct_triple_counts([(1, 0, 0), (2, 0, 0)], 3, 3)
    assert inst == TssInstance(2, True, direct[1], direct[3])
    assert {direct[h] for h in range(1, 27)} == {3, 0} and direct[1] == direct[2] == 3


def test_walk_constants_invariant_under_relabeling(code_8_4):
    g = coset_graph(code_8_4)
    base = is_s_swrg(g, 3).constants
    rng = random.Random(77)
    for _ in range(3):
        perm = list(range(g.nvertices))
        rng.shuffle(perm)
        adj = [set() for _ in range(g.nvertices)]
        for v in range(g.nvertices):
            for u in neighbors(g, v):
                adj[perm[v]].add(perm[u])
        res = walk_class_constants_dense(adj, 3)
        assert res.is_swrg and res.constants == base


def test_ternary_graph_layer():
    code = parse_matrix_file(data_path("matrices/q3_n009_k04_w3_6_9.txt"))
    g = coset_graph(code)
    assert g.nvertices == 81 and g.degree == 18
    claim = eigenvalues_from_weights(3, 9, (0, 3, 6, 9))
    assert verify_spectrum(g) == claim and spectrum_by_annihilator(g, claim)
    assert is_s_swrg(g, 3).is_swrg
    inst = tss_check(g)
    assert inst.consistent
    direct = direct_triple_counts(omega_from_code(code), 3, 4)
    assert direct == walk_counts(g, 3)
    assert direct[g.omega[0]] == inst.sigma0


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_digit_block_add_table_matches_digitwise_addition(q, k):
    g = CosetGraph(q, k, range(1, q), {})
    for w in range(q**k):
        assert g._add_table(w, k) == digitwise_add_table(w, q, k), (q, k, decode_vector(w, q, k))


def test_realized_rows_have_zero_middle_eigenvalue():
    # every realized catalog row has theta2 = 0 and theta3 = -theta1
    from threeweight.feasibility import feasibility_report

    for q, lo, hi in ((2, 4, 71), (3, 3, 39)):
        for c in feasibility_report(q, lo, hi):
            if c.verdict != "realized":
                continue
            claim = eigenvalues_from_weights(q, c.n, (0,) + c.weights)
            _, t1, t2, t3 = claim
            assert t2 == 0 and t3 == -t1, (q, c.n, c.k, c.weights)


def test_graph_export_shapes(code_8_4):
    g = coset_graph(code_8_4)
    lines = list(g.adjacency_lines())
    assert len(lines) == 16 and lines[0].startswith("0: ")
    summary = g.summary()
    assert summary["degree"] == 8
    assert sum(summary["eigenvalues"].values()) == 16

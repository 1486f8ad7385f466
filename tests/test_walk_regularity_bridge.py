"""Cross-layer oracle from the bridge theorem of van Dam & Omidi ("Strongly
walk-regular graphs", JCTA 120, 2013).

A connected regular graph of degree d with eigenvalues d > t1 > t2 > t3 is
s-walk-regular exactly when the points (t, t^s) are collinear, that is when
`curve.vandam_lhs(s, t1, t2, t3) == 0`.  Its walk constants then solve
A^s = c0 I + c1 A + c2 (J - I - A) on the eigenspaces.  Here the eigenvalues
come from the code's weights (and equal the graph's own, `verify_spectrum`),
the identity from the curve layer, and the verdict and constants both from
`is_s_swrg` and from the walk counts of the character-transform oracle,
class by class.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from threeweight.code import LinearCode, reed_muller, simplex
from threeweight.curve import vandam_lhs
from threeweight.gfmat import FieldMatrix, PrimeField
from threeweight.swrg import coset_graph, is_s_swrg, verify_spectrum

from code_oracles import columns
from swrg_oracles import eigenvalues_from_weights, walk_regularity


def eigenspace_constants(degree: int, nvertices: int, thetas, s: int):
    """(c0, c1, c2) with A^s = c0 I + c1 A + c2 (J - I - A) on every
    eigenspace, or None when no such constants exist.

    On a nontrivial eigenvector J vanishes, so t^s = (c0 - c2) + (c1 - c2) t
    for t = t1, t2, t3; on the all-one vector d^s = c0 + c1 d + c2 (N - 1 - d).
    """
    t1, t2, t3 = thetas
    slope = Fraction(t1**s - t2**s, t1 - t2)
    base = t1**s - slope * t1
    if base + slope * t3 != t3**s:
        return None
    c2 = (degree**s - base - slope * degree) / nvertices
    return (base + c2, slope + c2, c2)


def check_oracle(graph, s: int):
    """The spectral verdict and constants equal the oracle's walk counts,
    read class by class."""
    walk = is_s_swrg(graph, s)
    oracle = walk_regularity(graph, s)
    assert (walk.is_swrg, walk.constants) == (oracle.is_swrg, oracle.constants), (graph, s)
    return walk


def check_bridge(code: LinearCode, graph, s: int):
    q, n, _ = code.params()
    weights = code.weight_distribution().nonzero_weights()
    degree, *thetas = claim = eigenvalues_from_weights(q, n, (0,) + weights)
    assert verify_spectrum(graph) == claim, code
    walk = check_oracle(graph, s)
    assert walk.is_swrg == (vandam_lhs(s, *thetas) == 0), (code, s)
    expected = eigenspace_constants(degree, graph.nvertices, thetas, s)
    assert walk.constants == expected, (code, s)
    return walk, thetas


@pytest.fixture(scope="module")
def fixture_graphs(fixture_codes):
    return [(name, code, coset_graph(code)) for name, code, _ in fixture_codes]


@pytest.mark.parametrize("s", [3, 5, 7, 9])
def test_fixture_walk_regularity_is_the_eigenvalue_identity(fixture_graphs, s):
    for _, code, graph in fixture_graphs:
        walk, _ = check_bridge(code, graph, s)
        assert walk.is_swrg  # every fixture has the midpoint, so every odd s holds


@st.composite
def projective_three_weight_codes(draw):
    """A projective code from distinct points of PG(k-1, q) that span and
    give exactly three nonzero weights."""
    q, k = draw(st.sampled_from(((2, 3), (2, 4), (3, 3))))
    points = columns(simplex(q, k).generator)
    cols = draw(st.lists(st.sampled_from(points), min_size=k, unique=True))
    field = PrimeField(q)
    generator = FieldMatrix.from_columns(field, cols)
    assume(generator.rank() == k)
    code = LinearCode(field, generator)
    assume(len(code.weight_distribution().nonzero_weights()) == 3)
    return code


SETTINGS = settings(
    derandomize=True, database=None, deadline=None, max_examples=80,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@SETTINGS
@given(projective_three_weight_codes())
def test_drawn_code_walk_regularity_is_the_eigenvalue_identity(code):
    graph = coset_graph(code)
    for s in (3, 5, 7, 9):
        check_bridge(code, graph, s)


@SETTINGS
@given(projective_three_weight_codes())
def test_midpoint_decides_5_walk_regularity_when_the_eigenvalues_sum_to_zero(code):
    # with t1 + t2 + t3 = 0, h_3(t) = t1 t2 t3, which vanishes exactly when
    # t2 = 0, that is when w2 = n(q-1)/q
    graph = coset_graph(code)
    walk, thetas = check_bridge(code, graph, 3)
    assume(walk.is_swrg)
    assert sum(thetas) == 0
    q, n, _ = code.params()
    w2 = code.weight_distribution().nonzero_weights()[1]
    assert is_s_swrg(graph, 5).is_swrg == (w2 * q == n * (q - 1))


def test_drawn_codes_include_both_verdicts_at_s3():
    # the draws above must exercise the negative side of the identity too
    verdicts = set()

    @SETTINGS
    @given(projective_three_weight_codes())
    def collect(code):
        verdicts.add(is_s_swrg(coset_graph(code), 3).is_swrg)

    collect()
    assert verdicts == {True, False}


def random_projective_codes(seed: int, count: int):
    """Seeded codes from random spanning sets of distinct points of
    PG(k-1, q), q in {2, 3}, after the simplex codes (one weight) and the
    first-order Reed-Muller codes (two weights) of both fields."""
    codes = [simplex(2, 4), simplex(3, 3), reed_muller(2, 5), reed_muller(3, 3)]
    rng = random.Random(seed)
    while len(codes) < count:
        q, k = rng.choice(((2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4)))
        points = columns(simplex(q, k).generator)
        cols = rng.sample(points, rng.randint(k, len(points)))
        field = PrimeField(q)
        generator = FieldMatrix.from_columns(field, cols)
        if generator.rank() == k:
            codes.append(LinearCode(field, generator))
    return codes


def test_random_projective_codes_match_the_oracle():
    # every count of distinct nontrivial eigenvalues occurs: 1 (simplex), 2
    # (Reed-Muller), 3, and 4 or more, where no graph is walk-regular
    shapes = set()
    for code in random_projective_codes(2026, 60):
        graph = coset_graph(code)
        weights = code.weight_distribution().nonzero_weights()
        nontrivial = len(weights)
        assert verify_spectrum(graph) == eigenvalues_from_weights(code.q, code.n, (0,) + weights)
        shapes.add((code.q, min(nontrivial, 4)))
        for s in (3, 5, 7, 9):
            walk = check_oracle(graph, s)
            if nontrivial >= 4:
                assert not walk.is_swrg
            elif nontrivial <= 2:
                assert walk.is_swrg
    assert shapes == {(q, c) for q in (2, 3) for c in (1, 2, 3, 4)}

"""Subcode projection and the points of PG(k-1, p) against the reference
routes in `code_oracles`."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from threeweight import code as code_module
from threeweight.code import LinearCode, reed_muller
from threeweight.errors import RankDeficient
from threeweight.gfmat import FieldMatrix, PrimeField

from code_oracles import projection_by_basis_completion, projective_points_by_walk


def outcome(project, code, point):
    """The generator rows of the projection, or the type of what it raised."""
    try:
        return project(code, point).generator.to_rows()
    except Exception as exc:  # the two routes must fail alike too
        return type(exc)


def scaled(q: int, vec: tuple[int, ...], factor: int) -> tuple[int, ...]:
    return tuple(e * factor % q for e in vec)


@st.composite
def codes_and_points(draw):
    """A code over GF(q), q in {2, 3}, and a point that is off its point
    set, on it, or on it with multiplicity > 1 (a repeated or rescaled
    column), or the zero vector."""
    q = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(2, 4))
    vector = st.tuples(*[st.integers(0, q - 1)] * k)
    cols = draw(st.lists(vector, min_size=k, max_size=8))
    kind = draw(st.sampled_from(("any", "column", "repeated column")))
    if kind == "any":
        point = draw(vector)
    else:
        point = scaled(q, draw(st.sampled_from(cols)), draw(st.integers(1, q - 1)))
        if kind == "repeated column":
            for _ in range(draw(st.integers(1, 3))):
                copy = scaled(q, point, draw(st.integers(1, q - 1)))
                cols.insert(draw(st.integers(0, len(cols))), copy)
    field = PrimeField(q)
    generator = FieldMatrix.from_columns(field, cols)
    assume(generator.rank() == k)
    return LinearCode(field, generator), point


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(codes_and_points())
def test_closed_form_projection_matches_basis_completion(case):
    code, point = case
    expected = outcome(projection_by_basis_completion, code, point)
    assert outcome(LinearCode.subcode_projection, code, point) == expected


@pytest.mark.parametrize("rows,point", [
    ([[1, 0, 2], [0, 1, 1]], (1, 1, 0)),  # point of the wrong length
    ([[1, 0, 2], [0, 1, 1]], (0, 3)),  # zero vector mod 3
    ([[1, 2, 2]], (1,)),  # dimension 1
])
def test_projection_refuses_like_basis_completion(rows, point):
    code = LinearCode(PrimeField(3), FieldMatrix.from_rows(PrimeField(3), rows))
    expected = outcome(projection_by_basis_completion, code, point)
    assert isinstance(expected, type)
    assert outcome(LinearCode.subcode_projection, code, point) is expected


def test_projection_of_a_rank_deficient_generator_is_refused():
    # Through the constructor the generator has full rank, so its columns
    # span F_q^k and their images span V/P.  A generator that skipped the
    # rank check gives a rank-deficient image, and both routes refuse it.
    field = PrimeField(2)
    code = object.__new__(LinearCode)
    code.field = field
    code.generator = FieldMatrix.from_rows(field, [[1, 1, 0, 1], [1, 1, 0, 1], [0, 0, 0, 0]])
    code.n, code.k = 4, 3
    for project in (projection_by_basis_completion, LinearCode.subcode_projection):
        with pytest.raises(RankDeficient):
            project(code, (1, 0, 0))


@pytest.mark.parametrize(
    "p,k",
    [(p, k) for p in (2, 3, 5, 7, 11, 13, 139) for k in range(1, 15) if p**k <= 20000],
)
def test_projective_points_match_the_recursive_walk(p, k):
    points = code_module._projective_points(p, k)
    assert points == projective_points_by_walk(p, k)
    assert len(points) == (p**k - 1) // (p - 1)


@pytest.mark.parametrize("q,k", [(2, 2), (2, 5), (3, 2), (3, 4)])
def test_reed_muller_columns_are_the_affine_points_in_order(q, k):
    cols = list(reed_muller(q, k).generator.columns())
    assert [c[:-1] for c in cols] == list(product(range(q), repeat=k - 1))
    assert all(c[-1] == 1 for c in cols)

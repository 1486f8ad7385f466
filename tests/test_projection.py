"""The points of PG(k-1, p) against the reference walk in `code_oracles`,
and the column layout of the first-order Reed-Muller codes built from them."""

from __future__ import annotations

from itertools import product

import pytest

from threeweight import code as code_module
from threeweight.code import reed_muller

from code_oracles import columns, projective_points_by_walk


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
    cols = columns(reed_muller(q, k).generator)
    assert [c[:-1] for c in cols] == list(product(range(q), repeat=k - 1))
    assert all(c[-1] == 1 for c in cols)

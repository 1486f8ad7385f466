"""The modular Gray-code enumeration against the recursive oracle."""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from threeweight import code as code_module
from threeweight.code import LinearCode
from threeweight.errors import RankDeficient
from threeweight.gfmat import FieldMatrix, PrimeField

from code_oracles import recursive_weight_counts

FIELDS = (2, 3)


def low_digits(q: int, span: int) -> int:
    """L with q^L <= span < q^(L+1)."""
    digits = 0
    while q ** (digits + 1) <= span:
        digits += 1
    return digits


def nu(q: int, t: int) -> int:
    v = 0
    while t % q == 0:
        t //= q
        v += 1
    return v


def distribution(q: int, rows) -> dict[int, int]:
    field = PrimeField(q)
    return LinearCode(field, FieldMatrix.from_rows(field, rows)).weight_distribution().as_dict()


@pytest.mark.parametrize("span", [code_module._RULER_SPAN, 8])
@pytest.mark.parametrize("q,k", [(2, 1), (2, 5), (3, 1), (3, 4), (5, 3), (7, 3)])
def test_steps_visit_every_vector_once(span, q, k):
    with mock.patch.object(code_module, "_RULER_SPAN", span):
        chunks = list(code_module._gray_steps(q, k))
    steps = b"".join(chunks)
    assert len(steps) == q**k - 1
    assert list(steps) == [nu(q, t) for t in range(1, q**k)]
    low = min(k, max(1, low_digits(q, span)))
    assert [len(c) for c in chunks] == [q**low - 1] + [q**low] * (q ** (k - low) - 1)
    word = [0] * k
    seen = {tuple(word)}
    for j in steps:  # the identity generator: step j adds e_j
        word[j] = (word[j] + 1) % q
        seen.add(tuple(word))
    assert len(seen) == q**k


@st.composite
def generator_rows(draw):
    q = draw(st.sampled_from(FIELDS))
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 12))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=k, max_size=k
        )
    )
    return q, [tuple(r) for r in rows]


@pytest.mark.parametrize("span", [code_module._RULER_SPAN, 8])
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(generator_rows())
def test_drawn_codes_match_the_recursion(span, case):
    q, rows = case
    field = PrimeField(q)
    assume(FieldMatrix.from_rows(field, rows).rank() == len(rows))
    with mock.patch.object(code_module, "_RULER_SPAN", span):
        assert distribution(q, rows) == recursive_weight_counts(tuple(rows), q)


def boundary_cases(span: int, widest: int):
    for q in FIELDS:
        low = low_digits(q, span)
        for k in (low - 1, low, low + 1, 2 * low + 1):
            if 1 <= k and q**k <= widest:
                yield q, k


# At the production span, 2L + 1 digits is 2^25 or 3^15 codewords, too many
# for the recursion; span 64 (L = 6, 3) takes every boundary case.
@pytest.mark.parametrize(
    "span,q,k",
    [(code_module._RULER_SPAN, q, k) for q, k in boundary_cases(code_module._RULER_SPAN, 2**14)]
    + [(64, q, k) for q, k in boundary_cases(64, 2**14)],
)
def test_chunk_boundary_dimensions_match_the_recursion(span, q, k):
    rng = random.Random(q * 100 + k)
    n = k + 4
    while True:
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]
        try:
            with mock.patch.object(code_module, "_RULER_SPAN", span):
                got = distribution(q, rows)
            break
        except RankDeficient:
            continue
    assert got == recursive_weight_counts(tuple(rows), q)

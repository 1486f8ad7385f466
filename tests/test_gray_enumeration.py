"""The split XOR-popcount enumeration against the recursive oracle and the
modular Gray-code walk."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from threeweight import code as code_module
from threeweight.code import LinearCode
from threeweight.gfmat import FieldMatrix, PrimeField

from code_oracles import gray_steps, gray_weight_counts, recursive_weight_counts

FIELDS = (2, 3)
GRAY_SPAN = 4096  # the chunk size the Gray-code walk was tuned for


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


def random_full_rank_rows(q: int, k: int, n: int, seed: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    while True:
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]
        if FieldMatrix.from_rows(PrimeField(q), rows).rank() == k:
            return rows


def encoding(q: int, vec) -> int:
    """E(vec) written out: the support mask over GF(2), and over GF(3) bit
    v n + j for entry v at coordinate j."""
    n = len(vec)
    if q == 2:
        return sum(1 << j for j, e in enumerate(vec) if e)
    return sum(1 << (e * n + j) for j, e in enumerate(vec))


def library_encoding(q: int, vec) -> int:
    """E(vec) from the library: the span of one row starts E(0), E(row)."""
    masks = FieldMatrix.from_rows(PrimeField(q), [vec]).value_masks()
    return code_module._span_words(q, len(vec), masks)[1]


@pytest.mark.parametrize("span", [GRAY_SPAN, 8])
@pytest.mark.parametrize("q,k", [(2, 1), (2, 5), (3, 1), (3, 4), (5, 3), (7, 3)])
def test_steps_visit_every_vector_once(span, q, k):
    chunks = list(gray_steps(q, k, span))
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


@pytest.mark.parametrize("span", [GRAY_SPAN, 8])
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(generator_rows())
def test_drawn_codes_match_the_recursion(span, case):
    q, rows = case
    field = PrimeField(q)
    assume(FieldMatrix.from_rows(field, rows).rank() == len(rows))
    expected = recursive_weight_counts(tuple(rows), q)
    assert distribution(q, rows) == expected
    assert gray_weight_counts(tuple(rows), q, span) == expected


def boundary_cases(span: int, widest: int):
    for q in FIELDS:
        low = low_digits(q, span)
        for k in (low - 1, low, low + 1, 2 * low + 1):
            if 1 <= k and q**k <= widest:
                yield q, k


# The dimensions around the Gray walk's chunk boundaries: at span 4096 up to
# 2^13 and 3^8 codewords, at span 64 (L = 6, 3) every boundary case.
@pytest.mark.parametrize(
    "span,q,k",
    [(GRAY_SPAN, q, k) for q, k in boundary_cases(GRAY_SPAN, 2**14)]
    + [(64, q, k) for q, k in boundary_cases(64, 2**14)],
)
def test_chunk_boundary_dimensions_match_the_recursion(span, q, k):
    rows = random_full_rank_rows(q, k, k + 4, q * 100 + k)
    expected = recursive_weight_counts(tuple(rows), q)
    assert distribution(q, rows) == expected
    assert gray_weight_counts(tuple(rows), q, span) == expected


# The split puts k // 2 rows in the first half: k = 1 leaves it empty, and an
# odd k makes the second half one row longer.
@pytest.mark.parametrize("q,k", [(q, k) for q in FIELDS for k in range(1, 9)])
def test_split_boundary_dimensions_match_the_recursion(q, k):
    rows = random_full_rank_rows(q, k, k + 3, q * 1000 + k)
    assert distribution(q, rows) == recursive_weight_counts(tuple(rows), q)


@st.composite
def vector_pairs(draw):
    q = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 40))
    vec = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    return q, draw(vec), draw(vec)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(vector_pairs())
def test_encoding_distance_is_a_popcount(case):
    q, a, b = case
    ea, eb = library_encoding(q, a), library_encoding(q, b)
    assert (ea, eb) == (encoding(q, a), encoding(q, b))
    assert (ea ^ eb).bit_count() == (q - 1) * sum(x != y for x, y in zip(a, b))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(generator_rows())
def test_span_words_encode_every_vector_of_the_span_once(case):
    q, rows = case
    n = len(rows[0])
    masks = FieldMatrix.from_rows(PrimeField(q), rows).value_masks()
    spanned = [
        tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % q for j in range(n))
        for coeffs in product(range(q), repeat=len(rows))
    ]
    got = code_module._span_words(q, n, masks)
    assert sorted(got) == sorted(encoding(q, v) for v in spanned)

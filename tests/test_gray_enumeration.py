"""The block-wise bit-sliced enumeration against the recursive oracle and the
modular Gray-code walk, and its parts (level sets, carry-save planes)
against direct counts."""

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


# Below the block size b = k, and the level-set tables split the k digits at
# k // 2: k = 1 leaves the low table without a digit, and an odd k makes the
# high table one digit longer.
@pytest.mark.parametrize("q,k", [(q, k) for q in FIELDS for k in range(1, 9)])
def test_split_boundary_dimensions_match_the_recursion(q, k):
    rows = random_full_rank_rows(q, k, k + 3, q * 1000 + k)
    assert distribution(q, rows) == recursive_weight_counts(tuple(rows), q)


def level_sets_by_brute_force(q: int, col) -> list[int]:
    """sets[v] has bit x set when <x, col> = v, x read as a base-q numeral."""
    sets = [0] * q
    for x, digits in enumerate(product(range(q), repeat=len(col))):
        value = sum(d * c for d, c in zip(reversed(digits), col)) % q
        sets[value] |= 1 << x
    return sets


@pytest.mark.parametrize("q,b", [(2, 1), (2, 2), (2, 5), (3, 1), (3, 2), (3, 4)])
def test_level_sets_match_a_brute_force(q, b):
    cols = list(product(range(q), repeat=b))
    rows = tuple(bytes(c[i] for c in cols) for i in range(b))
    got = code_module._level_sets(q, len(cols), b, rows, q)
    assert got == [tuple(level_sets_by_brute_force(q, c)) for c in cols]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.integers(0, (1 << 70) - 1), max_size=40))
def test_carry_save_planes_count_each_position(masks):
    planes = code_module._bit_planes(list(masks))
    for x in range(70):
        count = sum(m >> x & 1 for m in masks)
        assert sum((p >> x & 1) << i for i, p in enumerate(planes)) == count


def rows_with_zero_columns(q: int, k: int, seed: int) -> list[tuple[int, ...]]:
    """A full-rank k-row generator with two zero columns among its k + 5."""
    rows = random_full_rank_rows(q, k, k + 3, seed)
    return [r[:2] + (0,) + r[2:] + (0,) for r in rows]


# A small block forces several blocks: BLOCK_BITS = 8 gives b = 3 over GF(2)
# and b = 1 over GF(3), and 27 gives b = 4 and b = 3.  Three extra rows walk
# the Gray code's steps through leading digits at q^0, q^1 and q^2.
@pytest.mark.parametrize("block_bits", [8, 27])
@pytest.mark.parametrize("q", FIELDS)
@pytest.mark.parametrize("extra", [0, 1, 2, 3])
def test_multi_block_enumeration_matches_both_oracles(monkeypatch, block_bits, q, extra):
    monkeypatch.setattr(code_module, "BLOCK_BITS", block_bits)
    b = low_digits(q, block_bits)
    rows = rows_with_zero_columns(q, b + extra, 7 * block_bits + q + extra)
    expected = recursive_weight_counts(tuple(rows), q)
    assert distribution(q, rows) == expected
    assert gray_weight_counts(tuple(rows), q, GRAY_SPAN) == expected


# Of the q^D blocks over D high digits, the kernel splits the first and, one
# per point of PG(D-1, q), those whose Gray step has leading digit 1: all 2^D
# over GF(2) and 1 + (3^D - 1)/2 over GF(3).
@pytest.mark.parametrize("q", FIELDS)
@pytest.mark.parametrize("high", range(5))
def test_one_block_per_class_of_scalar_multiples(monkeypatch, q, high):
    monkeypatch.setattr(code_module, "BLOCK_BITS", 8)
    calls = []
    split = code_module._bit_planes
    monkeypatch.setattr(code_module, "_bit_planes", lambda masks: calls.append(masks) or split(masks))
    k = low_digits(q, 8) + high
    rows = random_full_rank_rows(q, k, k + 3, 11 * q + high)
    assert distribution(q, rows) == recursive_weight_counts(tuple(rows), q)
    assert len(calls) == 1 + (q**high - 1) // (q - 1)

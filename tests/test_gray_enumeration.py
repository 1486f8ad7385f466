"""The block-wise bit-sliced enumeration against the recursive oracle and the
modular Gray-code walk at every split of the high digits into transformed
and walked ones, and its parts (level sets, carry-save planes, the Yates
stages) against direct counts."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from threeweight import code as code_module
from threeweight import gfmat
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
    planes = gfmat._bit_planes(list(masks), len(masks).bit_length())
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
# per point of PG(D-1, q), those whose leading digit is 1: all 2^D over
# GF(2), however many digits are transformed, and 1 + (3^D - 1)/2 over GF(3),
# which transforms none.
@pytest.mark.parametrize("q", FIELDS)
@pytest.mark.parametrize("high", range(5))
def test_one_block_per_class_of_scalar_multiples(monkeypatch, q, high):
    monkeypatch.setattr(code_module, "BLOCK_BITS", 8)
    k = low_digits(q, 8) + high
    rows = random_full_rank_rows(q, k, k + 3, 11 * q + high)
    split = code_module._split
    for transformed in range(high + 1 if q == 2 else 1):
        calls = []
        monkeypatch.setattr(code_module, "_transformed_digits", lambda *args: transformed)
        monkeypatch.setattr(code_module, "_split", lambda planes, *args: calls.append(planes) or split(planes, *args))
        assert distribution(q, rows) == recursive_weight_counts(tuple(rows), q)
        assert len(calls) == 1 + (q**high - 1) // (q - 1), transformed


# BLOCK_BITS = 8 leaves b = 3 block digits over GF(2); the high digits are
# split into T transformed and D - T walked ones, for every T, on generators
# with zero columns, so both parts carry columns of several classes and some
# classes are empty.
@pytest.mark.parametrize("high", [1, 2, 3, 4, 5])
def test_every_transformed_split_matches_the_recursion(monkeypatch, high):
    monkeypatch.setattr(code_module, "BLOCK_BITS", 8)
    k = 3 + high
    for extra, seed in ((0, 1), (6, 2), (2 << high, 3)):
        rows = rows_with_zero_columns(2, k, 200 + 10 * high + seed)
        rows = [r + tuple(random.Random(seed + i).choices(range(2), k=extra)) for i, r in enumerate(rows)]
        expected = recursive_weight_counts(tuple(rows), 2)
        for transformed in range(high + 1):
            monkeypatch.setattr(code_module, "_transformed_digits", lambda *args: transformed)
            assert distribution(2, rows) == expected, (transformed, extra)


# The rule transforms nothing without high digits and nothing over GF(3),
# the benchmark's ternary codes among them; the binary codes of the
# benchmark get T = 2 or 3.
def test_the_rule_keeps_small_codes_at_the_walk():
    for q, n in ((2, 1), (2, 500), (3, 2), (3, 500)):
        assert code_module._transformed_digits(q, n, 0, q**8) == 0
    for n, k in ((24, 10), (40, 10), (45, 11), (200, 11), (500, 16)):
        assert code_module._transformed_digits(3, n, k - 8, 3**8) == 0
    for n, k in ((48, 17), (64, 18), (96, 18), (200, 20)):
        assert code_module._transformed_digits(2, n, k - 14, 2**14) in (2, 3)


# On 2^14-bit blocks the stages' 2^T counts of p planes stay within the n
# level sets of 1 that the transform does not keep, for every length below
# 20000 and every D the enumeration guard allows.
def test_the_rule_keeps_the_stages_within_n_masks():
    for n in range(1, 20000):
        for high in range(13):
            transformed = code_module._transformed_digits(2, n, high, 2**14)
            assert n.bit_length() << transformed <= n or not transformed, (n, high)


@st.composite
def class_counts(draw):
    """T and, per class h of F_2^T, its size and the values of its count
    at 12 positions, each at most the size."""
    digits = draw(st.integers(1, 3))
    classes = []
    for _ in range(1 << digits):
        size = draw(st.integers(0, 9))
        classes.append((size, [draw(st.integers(0, size)) for _ in range(12)]))
    return digits, classes


def planes_of(numbers: list[int], width: int) -> list[int]:
    return [sum((x >> i & 1) << pos for pos, x in enumerate(numbers)) for i in range(width)]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(class_counts())
def test_yates_stages_match_the_sum_over_classes(case):
    digits, classes = case
    width, full = sum(size for size, _ in classes).bit_length(), (1 << 12) - 1
    counts = [planes_of(values, width) for _, values in classes]
    gfmat._yates(digits, counts, [size for size, _ in classes], full)
    for y in range(1 << digits):
        for pos in range(12):
            total = 0
            for h, (size, values) in enumerate(classes):
                total += size - values[pos] if (y & h).bit_count() % 2 else values[pos]
            assert sum((p >> pos & 1) << i for i, p in enumerate(counts[y])) == total, (y, pos)

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from threeweight.errors import InvalidArgument
from threeweight.gfmat import GF2, GF3, FieldMatrix, PrimeField
from threeweight.matrixio import parse_matrix_file

from code_oracles import kernel_basis
from conftest import data_path


def test_prime_field_rejects_prime_powers():
    with pytest.raises(InvalidArgument, match="field order"):
        PrimeField(4)
    with pytest.raises(InvalidArgument, match="field order"):
        PrimeField(9)
    with pytest.raises(InvalidArgument, match="field order"):
        PrimeField(1)


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 5, 7, 251, 1000000000000000003])
def test_prime_field_accepts_only_gf2_and_gf3(p):
    with pytest.raises(InvalidArgument) as exc:
        PrimeField(p)
    assert str(exc.value) == f"field order {p}: only GF(2) and GF(3) are supported"
    assert PrimeField(2).p == 2 and PrimeField(3).p == 3


@pytest.mark.parametrize("field", [GF2, GF3])
def test_from_columns_is_the_transpose_of_from_rows(field):
    rng = random.Random(field.p)
    cols = [[rng.randrange(-4, 5) for _ in range(4)] for _ in range(9)]
    by_columns = FieldMatrix.from_columns(field, cols)
    assert by_columns == FieldMatrix.from_rows(field, zip(*cols))
    assert by_columns.packed_rows() == tuple(bytes(e % field.p for e in r) for r in zip(*cols))


# Entries that are not ints were once coerced with int(): 1.5 was stored as
# 1, 0.9 as 0 and '2' read as 2, so a code built from them was another code.
@pytest.mark.parametrize("entry", [1.5, 0.9, 2.0, "2", Fraction(1), None])
def test_entries_that_are_not_ints_are_refused(entry):
    with pytest.raises(InvalidArgument, match="entries must be ints"):
        FieldMatrix.from_rows(GF3, [[entry, 0, 1], [0, 1, 1]])
    with pytest.raises(InvalidArgument, match="entries must be ints"):
        FieldMatrix.from_columns(GF3, [[1, 0], [0, entry], [1, 1]])


# Only an entry is reported as one: a row that is not iterable, or a
# TypeError raised while the caller's rows are produced, is raised as it is.
def test_type_errors_of_the_rows_themselves_are_not_entry_errors():
    with pytest.raises(TypeError, match="not iterable"):
        FieldMatrix.from_rows(GF2, [1, 0])

    def rows():
        yield (1, 0)
        raise TypeError("the caller's own")

    for build in (FieldMatrix.from_rows, FieldMatrix.from_columns):
        with pytest.raises(TypeError, match="the caller's own"):
            build(GF2, rows())


def test_bools_and_negative_ints_are_read_mod_p():
    rows = ((True, -1, -3), (False, 5, -2))
    assert FieldMatrix.from_rows(GF3, rows).to_rows() == ((1, 2, 0), (0, 2, 1))
    assert FieldMatrix.from_columns(GF3, zip(*rows)).to_rows() == ((1, 2, 0), (0, 2, 1))


def test_rref_identity():
    m = FieldMatrix.from_rows(GF2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    reduced, rank, pivots = m.rref()
    assert rank == 3
    assert pivots == (0, 1, 2)
    assert reduced == m


def test_rref_duplicate_rows():
    m = FieldMatrix.from_rows(GF2, [[1, 1], [1, 1]])
    assert m.rank() == 1


def test_rref_fixture_rank():
    code = parse_matrix_file(data_path("matrices/q2_n004_k03_w1_2_3.txt"))
    assert code.generator.rank() == 3


def test_kernel_of_full_rank_square_is_empty():
    m = FieldMatrix.from_rows(GF3, [[1, 2], [1, 1]])
    assert kernel_basis(m).nrows == 0


def test_parity_kernel():
    m = FieldMatrix.from_rows(GF2, [[1, 1]])
    ker = kernel_basis(m)
    assert ker.to_rows() == ((1, 1),)


def _annihilates(m, ker):
    """m times the transpose of ker is zero, entry by entry."""
    p = m.field.p
    return all(
        sum(a * b for a, b in zip(r, v)) % p == 0 for r in m.to_rows() for v in ker.to_rows()
    )


def _span_gf2(rows, n):
    words = {0}
    masks = []
    for row in rows:
        mask = 0
        for j, e in enumerate(row):
            if e:
                mask |= 1 << j
        masks.append(mask)
    for mask in masks:
        words |= {w ^ mask for w in words}
    return words


def test_kernel_matches_direct_dual_enumeration(fixture_codes):
    # oracle first: the dual of the [8,4] code by brute force over all 2^8 words
    code = next(c for _, c, _ in fixture_codes if (c.q, c.n, c.k) == (2, 8, 4))
    rows = code.generator.to_rows()
    brute = set()
    for v in range(1 << 8):
        vec = [(v >> j) & 1 for j in range(8)]
        if all(sum(r[j] * vec[j] for j in range(8)) % 2 == 0 for r in rows):
            brute.add(v)
    ker = kernel_basis(code.generator)
    assert ker.nrows == 4
    assert _span_gf2(ker.to_rows(), 8) == brute
    # H * transpose(kernel) = 0
    assert _annihilates(code.generator, ker)


@pytest.mark.parametrize("field", [GF2, GF3])
def test_rank_transpose_and_rank_nullity(field):
    rng = random.Random(11 + field.p)
    for _ in range(30):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 8)
        m = FieldMatrix.from_rows(
            field, [[rng.randrange(field.p) for _ in range(ncols)] for _ in range(nrows)]
        )
        if not any(any(r) for r in m.to_rows()):
            continue
        assert m.rank() == FieldMatrix.from_columns(field, m.to_rows()).rank()
        assert kernel_basis(m).nrows + m.rank() == m.ncols
        assert _annihilates(m, kernel_basis(m))


def test_rref_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        m = FieldMatrix.from_rows(
            GF3, [[rng.randrange(3) for _ in range(6)] for _ in range(4)]
        )
        reduced = m.rref().reduced
        assert reduced.rref().reduced == reduced


def test_packed_rank_matches_rref_on_every_fixture():
    from conftest import matrix_files

    paths = matrix_files()
    assert len(paths) == 74
    for path in paths:
        generator = parse_matrix_file(path).generator
        assert generator.rank() == generator.rref().rank, path.name
        # the transpose has the same rank, reached through other pivots
        transpose = FieldMatrix.from_columns(generator.field, generator.to_rows())
        assert transpose.rank() == transpose.rref().rank == generator.nrows, path.name


@pytest.mark.parametrize("field", [GF2, GF3])
def test_packed_rank_matches_rref_on_random_matrices(field):
    # 150 seeded draws per field: square, tall and wide, sparse and dense,
    # with repeated and scaled rows, so both full rank and every deficiency occur
    rng = random.Random(2026 + field.p)
    ranks = set()
    for _ in range(150):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 40)
        density = rng.choice((0.1, 0.5, 1.0))
        rows = [[rng.randrange(1, field.p) if rng.random() < density else 0
                 for _ in range(ncols)] for _ in range(nrows)]
        for _ in range(rng.randint(0, 2)):  # a scaled copy of another row
            row = rng.choice(rows)
            rows.insert(rng.randrange(len(rows) + 1), [(field.p - 1) * e for e in row])
        m = FieldMatrix.from_rows(field, rows)
        assert m.rank() == m.rref().rank, rows
        ranks.add((m.rank() == min(m.nrows, m.ncols), m.rank() == 0))
    assert ranks == {(True, False), (False, False), (False, True)}

"""Independent second routes for `threeweight.code`.

Weight distributions: the library splits the generator rows in half and
pairs the two half spans, with each word encoded as an integer whose XOR
popcount is (q - 1) times the Hamming distance.  `recursive_weight_counts`
recurses over the coefficient of each row in turn and builds every codeword
as a tuple from the previous one.  `gray_weight_counts` visits the codewords
in a third order, the modular q-ary Gray code, one row added per step.

Subcode projection: the library writes the quotient coordinates in closed
form; `projection_by_basis_completion` completes the point to a basis and
inverts the change of basis.  Projective points: the library filters
`itertools.product`; `projective_points_by_walk` walks every vector and
keeps the first member of each class.  Both are plain integer arithmetic
mod p, so the points are compared for primes beyond the two fields.
"""

from __future__ import annotations

from typing import Iterator

from threeweight.code import LinearCode, _canonical_point
from threeweight.errors import InvalidArgument, RankDeficient, UnsupportedParameters, ZeroVector
from threeweight.gfmat import FieldMatrix


def recursive_weight_counts(rows: tuple[tuple[int, ...], ...], p: int) -> dict[int, int]:
    """{weight: number of codewords} over all p^k coefficient vectors."""
    n = len(rows[0])
    counts: dict[int, int] = {}

    def rec(i: int, current: tuple[int, ...]) -> None:
        if i == len(rows):
            w = n - current.count(0)
            counts[w] = counts.get(w, 0) + 1
            return
        row = rows[i]
        acc = current
        rec(i + 1, acc)
        for _ in range(1, p):
            acc = tuple((a + b) % p for a, b in zip(acc, row))
            rec(i + 1, acc)

    rec(0, (0,) * n)
    return counts


def gray_steps(q: int, k: int, span: int) -> Iterator[bytes]:
    """nu_q(t), the q-adic valuation of t, for t = 1, ..., q^k - 1 as
    consecutive bytes chunks.

    Step t of the modular q-ary Gray code (Knuth, TAOCP 4A, 7.2.1.1) adds
    row nu_q(t); after t steps row j has been added d_j - (t div q^(j+1))
    times mod q, with d_j digit j of t, a triangular bijection of the
    digits.  The low L digits repeat one ruler, with L <= k the largest for
    which q^L <= span; a step that carries into the high digits,
    t = h q^L, adds row L + nu_q(h).
    """
    low = 1
    while low < k and q ** (low + 1) <= span:
        low += 1
    ruler = b""
    for i in range(low):
        ruler = (ruler + bytes((i,))) * (q - 1) + ruler
    carried = [bytes((low + j,)) + ruler for j in range(k - low)]
    yield ruler
    for h in range(1, q ** (k - low)):
        j = 0
        while h % q == 0:
            h //= q
            j += 1
        yield carried[j]


def gray_weight_counts(rows: tuple[tuple[int, ...], ...], p: int, span: int) -> dict[int, int]:
    """{weight: number of codewords}, one codeword per Gray-code step."""
    n = len(rows[0])
    word = [0] * n
    counts = {0: 1}
    for chunk in gray_steps(p, len(rows), span):
        for j in chunk:
            word = [(a + b) % p for a, b in zip(word, rows[j])]
            w = n - word.count(0)
            counts[w] = counts.get(w, 0) + 1
    return counts


def projection_by_basis_completion(code: LinearCode, point: tuple[int, ...]) -> LinearCode:
    """`code.subcode_projection(point)` by general linear algebra: complete
    P to a basis of F_q^k greedily with unit vectors (one rank test each),
    invert the change of basis by row reduction, and keep every coordinate
    but the one along P."""
    field = code.field
    p = field.p
    point = tuple(int(e) % p for e in point)
    if len(point) != code.k:
        raise InvalidArgument(f"point must live in F_q^{code.k}")
    if code.k < 2:
        raise UnsupportedParameters("projection needs dimension >= 2")
    rep = _canonical_point(field, point)
    if rep is None:
        raise ZeroVector("projection point must be nonzero")
    mat = [rep]
    for j in range(code.k):
        e = tuple(1 if i == j else 0 for i in range(code.k))
        if FieldMatrix.from_rows(field, mat + [e]).rank() == len(mat) + 1:
            mat.append(e)
        if len(mat) == code.k:
            break
    binv = _matrix_inverse(FieldMatrix.from_rows(field, mat))
    new_cols = []
    for col in code.generator.columns():
        if _canonical_point(field, col) == rep:
            continue  # points equal to P are removed by the projection
        coords = _matvec(FieldMatrix.from_columns(field, binv.to_rows()), col, p)
        new_cols.append(coords[1:])
    return LinearCode(field, FieldMatrix.from_columns(field, new_cols))


def _matvec(m: FieldMatrix, v: tuple[int, ...], p: int) -> tuple[int, ...]:
    return tuple(sum(r[j] * v[j] for j in range(len(v))) % p for r in m.to_rows())


def _matrix_inverse(m: FieldMatrix) -> FieldMatrix:
    n = m.nrows
    aug = FieldMatrix.from_rows(
        m.field, (tuple(m.row(i)) + tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    )
    reduced, rank, _ = aug.rref()
    if rank != n:
        raise RankDeficient("matrix is singular")
    return FieldMatrix.from_rows(m.field, (tuple(reduced.row(i))[n:] for i in range(n)))


def projective_points_by_walk(p: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Points of PG(k-1, p): walk every vector of F_p^k recursively in
    lexicographic order and keep the canonical form of each new class."""
    pts = []
    seen = set()
    vec = [0] * k

    def rec(i: int) -> None:
        if i == k:
            lead = next(filter(None, vec), 0)
            if lead:
                rep = tuple(e * pow(lead, -1, p) % p for e in vec)
                if rep not in seen:
                    seen.add(rep)
                    pts.append(rep)
            return
        for e in range(p):
            vec[i] = e
            rec(i + 1)
        vec[i] = 0

    rec(0)
    return tuple(pts)

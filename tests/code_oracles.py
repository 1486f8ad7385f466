"""Independent second routes for `threeweight.code`.

Weight distributions: the library counts the zero coordinates of a block
of messages at once, bit-sliced, one message per bit, and enumerates one
block per class of scalar multiples of the high coordinates, counted
q - 1 times.  Both routes here visit all q^k messages.
`recursive_weight_counts` recurses over the coefficient of each row in
turn and builds every codeword as a tuple from the previous one.
`gray_weight_counts` visits the codewords in a third order, the modular
q-ary Gray code, one row added per step.

Dual codes: the library needs no null space, so `kernel_basis` reads one
off the reduced row-echelon form for the tests that build a dual code.
Projective points: the library filters `itertools.product`;
`projective_points_by_walk` walks every vector and keeps the first member
of each class.  Both points routes are plain integer arithmetic mod p, so
they are compared for primes beyond the two fields.

Point classes of columns: the library keys every column by the least
base-q numeral among its nonzero multiples, all columns in one lane pass,
and never forms a column as a tuple.  `columns` transposes the rows;
`canonical_point` scales one column tuple so its first nonzero entry is 1;
`projectivity_by_points` and `complement_by_points` build the multiplicity
type and the anticode's columns from those tuples.

The extremal 4*Delta family of the binary divisibility results, Delta =
2^a: `theorem_4delta` builds the [4 Delta, 2a+3] code with weights
(Delta, 2 Delta, 3 Delta) and `theorem_4delta_minus1` its length
4 Delta - 1 companion.  No command builds them, so they are plain
constructions here, and the tests that build them assert their parameters
and closed-form weight enumerators.
"""

from __future__ import annotations

from typing import Iterator

from threeweight.code import LinearCode, MultiplicityType, _projective_points, reed_muller, simplex
from threeweight.gfmat import GF2, FieldMatrix


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


def kernel_basis(m: FieldMatrix) -> FieldMatrix:
    """Basis of the right null space of m, one vector per row, read off
    the reduced row-echelon form: one vector per free column.  The result
    has ncols - rank rows; a trivial kernel gives a matrix with no rows."""
    p = m.field.p
    reduced, _, pivots = m.rref()
    rows = reduced.to_rows()
    basis = []
    for f in sorted(set(range(m.ncols)) - set(pivots)):
        v = bytearray(m.ncols)
        v[f] = 1
        for row, pcol in zip(rows, pivots):
            v[pcol] = -row[f] % p
        basis.append(bytes(v))
    return FieldMatrix(m.field, tuple(basis), m.ncols)


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


def columns(matrix: FieldMatrix) -> list[tuple[int, ...]]:
    """The columns of a matrix as tuples, by transposing its rows."""
    return list(zip(*matrix.to_rows()))


def canonical_point(p: int, vec: tuple[int, ...]) -> tuple[int, ...] | None:
    """Scale so the first nonzero entry is 1, by that entry itself (its own
    inverse in GF(2) and GF(3)); None for the zero vector."""
    for e in vec:
        if e:
            return tuple(x * e % p for x in vec)
    return None


def projectivity_by_points(code: LinearCode) -> tuple[bool, MultiplicityType, frozenset]:
    """(projective, multiplicity type, canonical points of the columns),
    by canonicalising each column tuple in turn."""
    classes: dict[tuple[int, ...], int] = {}
    zero_positions = 0
    for col in columns(code.generator):
        rep = canonical_point(code.q, col)
        if rep is None:
            zero_positions += 1
        else:
            classes[rep] = classes.get(rep, 0) + 1
    sizes: dict[int, int] = {}
    for c in classes.values():
        sizes[c] = sizes.get(c, 0) + 1
    mult = MultiplicityType(tuple(sorted(sizes.items())), zero_positions)
    flag = zero_positions == 0 and all(c == 1 for c in classes.values())
    return flag, mult, frozenset(classes)


def complement_by_points(code: LinearCode) -> list[tuple[int, ...]]:
    """The points of PG(k-1, q) in lexicographic order that no column of
    the code spans, by set membership of canonical tuples."""
    _, _, points = projectivity_by_points(code)
    return [pt for pt in _projective_points(code.q, code.k) if pt not in points]


def theorem_4delta(a: int) -> LinearCode:
    """Two first-order Reed-Muller blocks RM_2(a+2) glued so that the left
    block's all-one row, its last, carries the right block's first row;
    for a >= 3 the enumerator is
    1 + (4D-3) x^D + (8D^2-8D+3) x^2D + (4D-1) x^3D with D = 2^a."""
    rm_rows = reed_muller(2, a + 2).generator.to_rows()
    zero = (0,) * len(rm_rows[0])
    rows = [r + zero for r in rm_rows[:-1]]
    rows.append(rm_rows[-1] + rm_rows[0])
    rows += [zero + r for r in rm_rows[1:]]
    return LinearCode(GF2, FieldMatrix.from_rows(GF2, rows))


def theorem_4delta_minus1(a: int) -> LinearCode:
    """Sim_2(a+1) + RM_2(a+2), a direct sum of length 4D - 1 with the
    enumerator 1 + (6D-3) x^D + (8D^2-8D+3) x^2D + (2D-1) x^3D, D = 2^a."""
    return simplex(2, a + 1).direct_sum(reed_muller(2, a + 2))

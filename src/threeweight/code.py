"""Linear-code core: weight distributions, projectivity, and the structural
constructions (simplex, first-order Reed-Muller, direct sums, anticodes,
the length-23 Golay code).

Codes are immutable.  Weight distributions come from codeword
enumeration, bit-sliced by blocks of messages: the messages that share
their last k - b coordinates form one block, one bit each, with q^b <=
BLOCK_BITS.  Scalar multiples have the same weight, so the block whose
last coordinates are zero is enumerated once and one block per class of
nonzero multiples of the last coordinates is enumerated and counted q - 1
times.  Per generator column, the level sets of its inner product with the
first b coordinates are built once; in each block the zero set of every
codeword coordinate is one of them, and a depth-first split of bit planes
of the zero count ends in one popcount per weight.  The planes of one
block come from a carry-save adder over its n zero sets.  Over GF(2) the
2^T blocks that differ only in the T coordinates after the first b come
at once: the columns are grouped by their entries in those T rows, each
class's zero sets are carry-saved once, and Yates's algorithm over F_2^T
forms every block's planes in T stages of ripple-carry adders
(`_weight_counts`, with T chosen by adder counts in
`_transformed_digits`).  The same kernel serves GF(2) and GF(3); its
bit-sliced arithmetic is in `gfmat`.

Columns are read as base-q numerals, the first row the lowest digit, all
columns of a generator in one pass of lane arithmetic on the packed rows
(`_numerals`).  The kernel reads column parts that way, one byte lane
each; projectivity and the anticode key each column by the least numeral
among its nonzero multiples (`_point_keys`), which is 0 for a zero column
and the same for two columns exactly when they span one point of
PG(k-1, q).

`WeightDistribution` and `MultiplicityType` are `NamedTuple`s: immutable,
iterable, and equal to the plain tuple of their fields.
"""

from __future__ import annotations

import struct
from collections import Counter
from functools import lru_cache
from itertools import accumulate, compress, pairwise, product
from operator import and_, getitem, itemgetter, mul, not_, or_, xor
from typing import NamedTuple

from .errors import GuardExceeded, InvalidArgument, SelfCheckFailed
from .gfmat import _MOD, GF2, FieldMatrix, PrimeField, _bit_planes, _level_tables, _split, _yates

ENUMERATION_GUARD = 1 << 26
# At most this many messages per enumeration block, one bit each: 2^14 bits
# keep a block's planes at 2 KiB.
BLOCK_BITS = 1 << 14

# per field, the translate tables that multiply every entry of a reduced
# row by each nonzero scalar in turn, 1 first and -1 last
_MULTIPLES = {q: tuple(bytes(lam * v % q for v in range(256)) for lam in range(1, q)) for q in (2, 3)}
# `struct` formats of the lane widths it can cut
_LANE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


class WeightDistribution(NamedTuple):
    """Counts A_i of codewords per weight; zero counts are omitted."""

    n: int
    counts: tuple[tuple[int, int], ...]  # sorted (weight, frequency) pairs

    @classmethod
    def from_dict(cls, n: int, d: dict[int, int]) -> "WeightDistribution":
        return cls(n, tuple(sorted((w, a) for w, a in d.items() if a)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    def nonzero_weights(self) -> tuple[int, ...]:
        return tuple(w for w, _ in self.counts if w > 0)

    def frequency(self, w: int) -> int:
        return dict(self.counts).get(w, 0)


class MultiplicityType(NamedTuple):
    """Position multiplicity type: m[i] = number of projective equivalence
    classes of positions of size i.  Zero positions form a class of their
    own and make the code non-full-length."""

    m: tuple[tuple[int, int], ...]  # sorted (class size, count) pairs
    zero_positions: int

    def as_dict(self) -> dict[int, int]:
        return dict(self.m)


def _lane_width(q: int, k: int) -> int:
    """Bytes per lane that hold every numeral of k base-q digits: 1, 2, 4
    or 8, which `struct` cuts at once, and a multiple of 8 past that."""
    nbytes = ((q**k - 1).bit_length() + 7) // 8
    return next((w for w in _LANE_FORMATS if w >= nbytes), -(-nbytes // 8) * 8)


def _numerals(q: int, n: int, rows: tuple[bytes, ...]) -> tuple[int, ...]:
    """Per column, its entries in the given rows read as a base-q numeral,
    the first row the lowest digit.  Each row is spread into one integer,
    a lane of `_lane_width(q, len(rows))` bytes per column, too wide to
    carry, and the rows are summed by Horner's rule."""
    width = _lane_width(q, len(rows))
    buf = bytearray(n * width)
    value = 0
    for row in reversed(rows):
        buf[::width] = row
        value = value * q + int.from_bytes(buf, "little")
    data = value.to_bytes(n * width, "little")
    if width in _LANE_FORMATS:
        return struct.unpack(f"<{n}{_LANE_FORMATS[width]}", data)
    return tuple(int.from_bytes(data[i : i + width], "little") for i in range(0, n * width, width))


def _scalar_numerals(q: int, n: int, rows: tuple[bytes, ...]) -> tuple[int, ...]:
    """The numerals of the q - 1 nonzero multiples of each of the n columns
    of the given reduced rows, multiple lam of column j at (lam - 1) n + j:
    one numeral pass over the rows and their multiples side by side."""
    blocks = [[row.translate(t) for row in rows] for t in _MULTIPLES[q]]
    return _numerals(q, (q - 1) * n, tuple(map(b"".join, zip(*blocks))))


def _point_keys(q: int, n: int, numerals: tuple[int, ...]) -> tuple[int, ...]:
    """Per column, from the `_scalar_numerals` of n columns, the least
    numeral among its nonzero multiples: 0 for a zero column, and equal for
    two columns exactly when they span the same point of PG(k-1, q)."""
    return numerals if q == 2 else tuple(map(min, numerals[:n], numerals[n:]))


def _level_sets(q: int, n: int, b: int, rows: tuple[bytes, ...], values: int) -> list[tuple[int, ...]]:
    """sets[j][v] has bit x set when <x, c_j> = v, for v < values, x in
    F_q^b read as a base-q numeral and c_j column j of the given b rows: one
    lookup in a table of the low half of the digits and one in a table of
    the high half, joined by XOR over GF(2) and by (AND, OR) over GF(3)."""
    full = (1 << q**b) - 1
    low_table, high_table = _level_tables(q, b)
    low = map(low_table.__getitem__, _numerals(q, n, rows[: b // 2]))
    high = map(high_table.__getitem__, _numerals(q, n, rows[b // 2 :]))
    if q == 2:
        ones = list(map(xor, low, high))
        return list(zip(*[map(full.__xor__, ones), ones][:values]))
    a0, a1, a2 = zip(*low)
    bs = tuple(zip(*high))  # value v is u from the low half and v - u from the high
    return list(zip(*[
        map(or_, map(or_, map(and_, a0, bs[v]), map(and_, a1, bs[v - 1])), map(and_, a2, bs[v - 2]))
        for v in range(values)
    ]))


def _weight_counts(q: int, rows: tuple[bytes, ...]) -> list[int]:
    """counts[w] = number of codewords of weight w, each class of nonzero
    scalar multiples enumerated once and counted q - 1 times.

    A message is x = (x_lo, x_hi), x_lo its first b coordinates, b <= k the
    largest with q^b <= BLOCK_BITS (at least 1).  Coordinate j of the
    codeword is <x_lo, c_lo> + <x_hi, c_hi> for column c = (c_lo, c_hi), so
    for each x_hi it is zero exactly on the level set of -<x_hi, c_hi> among
    the q^b values of x_lo, one bit each.  Per block (one x_hi) the zero
    count is held in bit planes (`gfmat._bit_planes`), and a depth-first
    split of the planes ends in one popcount per weight (`gfmat._split`).

    Over GF(2) the first T high digits, x_hi = (y, z) with y in F_2^T, are
    transformed and the other D - T walked, T from `_transformed_digits`
    (over GF(3) T = 0: the walk alone).  Sorted by h, their entries in the
    T rows after the block rows, the columns fall into 2^T classes.  With
    s_j = <z, c_j> over the walked rows, column j is zero at (x_lo, y, z)
    when <x_lo, c_lo> + s_j = <y, h>.  Per walked step, a carry-save adder
    sums each class's level sets of 0 where s_j = 0 and their complements
    where s_j = 1 into E_h, the count of its columns with <x_lo, c_lo> +
    s_j = 0; each other column has value 1, so their count is |h| - E_h.
    The zero count of block (y, z) is then the sum over h of E_h where
    <y, h> = 0 and of |h| - E_h where it is 1, and Yates's algorithm
    (F. Yates, The Design and Analysis of Factorial Experiments, 1937)
    forms all 2^T of them in T stages of ripple-carry adders, one digit of
    h traded for one of y per stage (`gfmat._yates`).  Only the level sets
    of 0 are kept then.  With T = 0 a step has one block, whose zero set
    of column j is its level set of s_j.

    The walked blocks follow the modular Gray code over z, one row added
    per step: after step t, digit i of z is
    (floor(t/q^i) - floor(t/q^(i+1))) mod q.  Only the steps t = 0 and t
    with leading base-q digit 1 are split.  For q^p <= t < q^(p+1) with
    leading digit lam, digit p of z is lam, the digits above it are 0, and
    as t runs over [lam q^p, (lam+1) q^p) the digits below p run over all
    of F_q^p (the Gray code of t - lam q^p, digit p-1 shifted by -lam).  So
    those steps hold the messages lam (x_lo, y, w, 1, 0, ...) for every
    x_lo, y and w, lam times the messages of [q^p, 2q^p), and x -> lam x
    keeps the weight: each of their blocks is counted q - 1 times.  Over
    GF(2) every t >= 1 has leading digit 1 and q - 1 = 1, so every block is
    split once.
    """
    k, n = len(rows), len(rows[0])
    b = 1
    while b < k and q ** (b + 1) <= BLOCK_BITS:
        b += 1
    width, full = n.bit_length(), (1 << q**b) - 1
    transformed = _transformed_digits(q, n, k - b, q**b)
    if transformed:  # sorted by class
        keys = _numerals(q, n, rows[b : b + transformed])
        order = itemgetter(*sorted(range(n), key=keys.__getitem__))  # n >= k >= 2 here
        rows = tuple(bytes(order(row)) for row in rows)
        sizes = list(map(keys.count, range(1 << transformed)))  # the number of columns of each class
    # zeros only for one block, and with digits transformed
    levels = _level_sets(q, n, b, rows[:b], 1 if k == b or transformed else q)
    if transformed:  # the columns themselves, and each class's level sets of 0
        cuts = list(pairwise(accumulate(sizes, initial=0)))
        zeros = [[z for z, in levels[lo:hi]] for lo, hi in cuts]
    # adding a row to z adds its negation to s, lane by lane
    steps = [int.from_bytes(row.translate(_MULTIPLES[q][-1]), "little") for row in rows[b + transformed :]]
    neg = bytes(n)  # s_j per column
    counts = [0] * (n + 1)
    top = 1  # q^p <= t
    for t in range(q ** (k - b - transformed)):
        if t:  # step t of the Gray code adds row b + T + nu_q(t)
            i, s = 0, t
            while s % q == 0:
                s //= q
                i += 1
            neg = (int.from_bytes(neg, "little") + steps[i]).to_bytes(n, "little")
            neg = neg.translate(_MOD[q])
            if t == top * q:
                top = t
            if t >= 2 * top:  # [lam q^p, (lam+1) q^p) is lam times [q^p, 2 q^p)
                continue
        if transformed:  # per class, its zero sets where s_j = 0 and their complements where s_j = 1
            blocks = [
                _bit_planes([*compress(zs, map(not_, neg[lo:hi])), *map(full.__xor__, compress(zs, neg[lo:hi]))], width)
                for (lo, hi), zs in zip(cuts, zeros)
            ]
            _yates(transformed, blocks, sizes, full)
        else:  # the zero sets of the step's one block
            blocks = [_bit_planes(list(map(getitem, levels, neg)), width)]
        for planes in blocks:
            _split(planes, full, n, counts)
        if not t:
            first = counts[:]
        del blocks  # freed before the next step forms its own
    # block 0 counts once and every later split block q - 1 times: the sum
    # itself over GF(2) or for one block
    return counts if q == 2 or k == b else [f + (q - 1) * (c - f) for c, f in zip(counts, first)]


def _transformed_digits(q: int, n: int, high: int, bits: int) -> int:
    """T for `_weight_counts` over `high` = D digits, with blocks of `bits`
    = 2^b bits: over GF(2), the T that costs the fewest full adders on
    block-wide planes of p = bit length of n, and over GF(3) always 0.

    A step forms 2^T blocks, and 2^(D-T) steps are formed.  With T = 0 a
    step carry-saves the n zero sets, about n adders.  With T >= 1 it
    carry-saves n masks too, and Yates's T stages cost about T 2^(T+1) p
    adders: each stage forms 2^T entries, 2^(T-1) pairs of three ripples
    of p planes, rounded up to 4.  Each step also has a fixed cost, its
    lists and calls, measured at about 32 adders on 2^14-bit planes; over
    planes of `bits` bits that is 2^19 / bits adders.  On 2^14-bit blocks
    the pick keeps the stages' 2^T counts of p planes within n masks, the
    n level sets of 1 that the kernel does not keep, so it needs no cap of
    its own (the tests check every n < 20000 and D <= 12, and the
    enumeration guard q^k <= 2^26 gives D <= 12).  At D = 0 only T = 0 is
    possible.  Over GF(3) no T >= 1 was measured faster than T = 0, so
    none is used.
    """
    width = n.bit_length()

    def cost(t: int) -> int:
        return (n + (1 << 19) // bits + (t * width << t + 1) if t else n) << high - t

    return 0 if q == 3 or not high else min(range(high + 1), key=cost)


class LinearCode:
    """An [n, k]_q linear code given by a full-row-rank generator matrix."""

    __slots__ = ("field", "generator", "n", "k", "_distribution", "_projectivity", "_numerals")

    def __init__(self, field: PrimeField, generator: FieldMatrix):
        if generator.field.p != field.p:
            raise InvalidArgument("generator matrix is over a different field")
        if generator.nrows < 1:
            raise InvalidArgument("a code needs at least one generator row")
        if generator.rank() != generator.nrows:
            raise InvalidArgument(f"generator has rank {generator.rank()} < {generator.nrows} rows")
        self.field = field
        self.generator = generator
        self.n = generator.ncols
        self.k = generator.nrows
        self._distribution: WeightDistribution | None = None
        self._projectivity: tuple[bool, MultiplicityType] | None = None
        self._numerals: tuple[int, ...] | None = None

    # -- basics --------------------------------------------------------

    @property
    def q(self) -> int:
        return self.field.p

    def params(self) -> tuple[int, int, int]:
        return (self.q, self.n, self.k)

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}]_{self.q})"

    def weight_distribution(self) -> WeightDistribution:
        """Exact counts by codeword enumeration, one block of messages per
        class of scalar multiples (guarded at q^k <= 2^26)."""
        if self._distribution is not None:
            return self._distribution
        if self.q**self.k > ENUMERATION_GUARD:
            raise GuardExceeded(f"q^k = {self.q}**{self.k} exceeds the enumeration guard")
        rows = self.generator.packed_rows()
        counts = _weight_counts(self.q, rows)
        size = self.q**self.k
        if sum(counts) != size:
            raise SelfCheckFailed(f"enumeration counted {sum(counts)} codewords, not q^k")
        support = 0
        for row in rows:
            support |= int.from_bytes(row, "little")
        nonzero = self.n - support.to_bytes(self.n, "little").count(0)
        moment = sum(map(mul, counts, range(len(counts))))
        if moment != (size - size // self.q) * nonzero:  # each nonzero column's share
            raise SelfCheckFailed(
                f"enumerated weights sum to {moment}, not q^(k-1)(q-1) times {nonzero} nonzero columns"
            )
        dist = WeightDistribution.from_dict(self.n, dict(enumerate(counts)))
        self._distribution = dist
        return dist

    def scalar_numerals(self) -> tuple[int, ...]:
        """`_scalar_numerals` of the generator: the lane pass of
        `is_projective`, kept for the coset graph's Omega."""
        if self._numerals is None:
            self._numerals = _scalar_numerals(self.q, self.n, self.generator.packed_rows())
        return self._numerals

    def is_projective(self) -> tuple[bool, MultiplicityType]:
        """Full-length with pairwise projectively inequivalent positions;
        computed once and kept, like the weight distribution.  Positions
        fall into classes by their point keys, key 0 the zero positions."""
        if self._projectivity is not None:
            return self._projectivity
        classes = Counter(_point_keys(self.q, self.n, self.scalar_numerals()))
        zero_positions = classes.pop(0, 0)
        sizes = Counter(classes.values())
        mult = MultiplicityType(tuple(sorted(sizes.items())), zero_positions)
        # n nonzero classes leave no zero position and no class of two
        self._projectivity = (len(classes) == self.n, mult)
        return self._projectivity

    # -- derived codes -------------------------------------------------

    def even_weight_subcode(self) -> "LinearCode":
        """Subcode of even-weight words; dimension drops by at most one."""
        if self.q != 2:
            raise InvalidArgument("even-weight subcode is a binary notion")
        rows = self.generator.to_rows()
        parities = [sum(r) % 2 for r in rows]
        if not any(parities):
            return self
        pivot = parities.index(1)
        new_rows = []
        for i, r in enumerate(rows):
            if i == pivot:
                continue
            if parities[i]:
                new_rows.append(tuple((a + b) % 2 for a, b in zip(r, rows[pivot])))
            else:
                new_rows.append(r)
        if not new_rows:
            raise InvalidArgument("even-weight subcode is the zero code")
        return LinearCode(self.field, FieldMatrix.from_rows(self.field, new_rows))

    def anticode(self) -> "LinearCode":
        """Code on the complementary point set of PG(k-1, q).

        Requires projectivity and a spanning complement (equivalently no
        codeword of weight q^(k-1)).  The nonzero weights map to
        q^(k-1) - w; this is re-verified by enumeration.
        """
        flag, _ = self.is_projective()
        if not flag:
            raise InvalidArgument("anticode is defined for projective codes only")
        dist = self.weight_distribution()
        qk1 = self.q ** (self.k - 1)
        if dist.frequency(qk1) != 0:
            raise InvalidArgument(f"code attains weight q^(k-1) = {qk1}; complement does not span")
        # one pass keys the columns and the points of PG(k-1, q) side by side
        points = _projective_points(self.q, self.k)
        rows = tuple(map(bytes.__add__, self.generator.packed_rows(), map(bytes, zip(*points))))
        m = self.n + len(points)
        keys = _point_keys(self.q, m, _scalar_numerals(self.q, m, rows))
        taken = set(keys[: self.n])
        comp = [pt for pt, key in zip(points, keys[self.n :]) if key not in taken]
        if not comp:
            raise InvalidArgument("complement is empty")
        gen = FieldMatrix.from_columns(self.field, comp)
        out = LinearCode(self.field, gen)
        expected = {0: 1}
        for w, a in dist.counts:
            if w > 0:
                expected[qk1 - w] = expected.get(qk1 - w, 0) + a
        if out.weight_distribution().as_dict() != expected:
            raise SelfCheckFailed("anticode weights are not q^(k-1) - w")
        return out

    def direct_sum(self, other: "LinearCode") -> "LinearCode":
        """Block-diagonal sum; the weight enumerator multiplies (checked)."""
        if self.q != other.q:
            raise InvalidArgument("direct sum needs a common field")
        rows = []
        for r in self.generator.to_rows():
            rows.append(r + (0,) * other.n)
        for r in other.generator.to_rows():
            rows.append((0,) * self.n + r)
        out = LinearCode(self.field, FieldMatrix.from_rows(self.field, rows))
        da, db = self.weight_distribution().as_dict(), other.weight_distribution().as_dict()
        prod: dict[int, int] = {}
        for wa, aa in da.items():
            for wb, ab in db.items():
                prod[wa + wb] = prod.get(wa + wb, 0) + aa * ab
        if out.weight_distribution().as_dict() != prod:
            raise SelfCheckFailed("direct-sum enumerator is not the product")
        return out


@lru_cache(maxsize=None)
def _projective_points(p: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The points of PG(k-1, p) as the vectors whose first nonzero entry is
    1, in lexicographic order."""
    return tuple(v for v in product(range(p), repeat=k) if next(filter(None, v), 0) == 1)


# -- named constructions ----------------------------------------------


def simplex(q: int, k: int) -> LinearCode:
    """Sim_q(k): all points of PG(k-1, q) as columns; constant weight q^(k-1)."""
    if not isinstance(k, int) or k < 1:
        raise InvalidArgument(f"simplex needs an int k >= 1, not {k!r}")
    field = PrimeField(q)
    return LinearCode(field, FieldMatrix.from_columns(field, _projective_points(q, k)))


def reed_muller(q: int, k: int) -> LinearCode:
    """First-order Reed-Muller code RM_q(k): an affine subspace of points.

    Columns are all (1, a_2, ..., a_k); the all-one word is the last
    generator row (the 4*Delta test oracle relies on that layout).
    """
    if not isinstance(k, int) or k < 2:
        raise InvalidArgument(f"first-order Reed-Muller needs an int k >= 2, not {k!r}")
    field = PrimeField(q)
    cols = [pt for pt in _projective_points(q, k) if pt[0] == 1]
    # rows: coordinate functionals a_2..a_k, then the all-one row
    rows = [tuple(c[i] for c in cols) for i in range(1, k)]
    rows.append(tuple(1 for _ in cols))
    return LinearCode(field, FieldMatrix.from_rows(field, rows))


def parity_check_code(n: int) -> LinearCode:
    """Binary [n, n-1] even-weight code."""
    if not isinstance(n, int) or n < 2:
        raise InvalidArgument(f"parity-check code needs an int n >= 2, not {n!r}")
    rows = [tuple(1 if j in (i, n - 1) else 0 for j in range(n)) for i in range(n - 1)]
    return LinearCode(GF2, FieldMatrix.from_rows(GF2, rows))


GOLAY23_GENERATOR_POLY = (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)  # x^0 .. x^11


def golay23() -> LinearCode:
    """The binary [23, 12] Golay code from its cyclic generator polynomial.

    Build-time validation: the even-weight subcode must have the
    enumerator 1 + 506 x^8 + 1288 x^12 + 253 x^16.
    """
    rows = []
    for shift in range(12):
        row = [0] * 23
        for d, c in enumerate(GOLAY23_GENERATOR_POLY):
            if c:
                row[shift + d] = 1
        rows.append(tuple(row))
    code = LinearCode(GF2, FieldMatrix.from_rows(GF2, rows))
    even = code.even_weight_subcode()
    if even.weight_distribution().as_dict() != {0: 1, 8: 506, 12: 1288, 16: 253}:
        raise SelfCheckFailed("Golay even-weight subcode has the wrong enumerator")
    return code

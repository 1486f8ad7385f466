"""Exact dense linear algebra over GF(2) and GF(3).

Everything is integer arithmetic mod p; there is no floating point anywhere
in this package.  Matrices are immutable; rows are stored as byte strings.
`PrimeField` is the one place that decides which fields are supported.  In
GF(2) and GF(3) every nonzero element is its own inverse, so scaling by a
nonzero entry is how a row is normalised, and no inverse is computed.

The bit-sliced arithmetic of the weight kernel (`code._weight_counts`) is
here too: the level-set tables of linear forms on F_q^b, one bit per
vector; counts per bit position held as bit planes, summed by a carry-save
adder over masks and by ripple-carry adders over planes; Yates's algorithm
over F_2^T on such counts; and the split of a block's planes into a
histogram of weights.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import InvalidArgument


class PrimeField:
    """GF(p) for p in {2, 3}; every other field order, and every p that is
    not an int, is rejected."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p not in (2, 3):
            raise InvalidArgument(f"field order {p}: only GF(2) and GF(3) are supported")
        self.p = p


GF2 = PrimeField(2)
GF3 = PrimeField(3)

# translate tables that reduce every byte lane mod p
_MOD = {p: bytes(v % p for v in range(256)) for p in (2, 3)}


class RrefResult(NamedTuple):
    reduced: "FieldMatrix"
    rank: int
    pivot_cols: tuple[int, ...]


class FieldMatrix:
    """Immutable matrix over GF(p), rows packed as bytes."""

    __slots__ = ("field", "nrows", "ncols", "_rows")

    def __init__(self, field: PrimeField, rows: tuple[bytes, ...], ncols: int):
        if ncols < 1:
            raise InvalidArgument("matrix must have at least one column")
        for r in rows:
            if len(r) != ncols:
                raise InvalidArgument("ragged rows")
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self._rows = rows

    @classmethod
    def from_rows(cls, field: PrimeField, rows: Iterable[Iterable[int]]) -> "FieldMatrix":
        packed = _pack(field.p, rows)
        if not packed or not packed[0]:
            raise InvalidArgument("matrix must be nonempty")
        return cls(field, packed, len(packed[0]))

    @classmethod
    def from_columns(cls, field: PrimeField, cols: Iterable[Iterable[int]]) -> "FieldMatrix":
        cols = _pack(field.p, cols)
        if cols and any(len(c) != len(cols[0]) for c in cols):
            raise InvalidArgument("ragged columns")
        if not cols or not cols[0]:
            raise InvalidArgument("matrix must be nonempty")
        return cls(field, tuple(map(bytes, zip(*cols))), len(cols))

    def to_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(r) for r in self._rows)

    def packed_rows(self) -> tuple[bytes, ...]:
        """The rows as stored, one byte per entry."""
        return self._rows

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.field.p == other.field.p
            and self.ncols == other.ncols
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.ncols, self._rows))

    def __repr__(self) -> str:
        return f"FieldMatrix(GF({self.field.p}), {self.nrows}x{self.ncols})"

    def rref(self) -> RrefResult:
        """Reduced row-echelon form, rank and pivot columns.

        Pivot choice is deterministic: first nonzero entry scanning rows
        top-down within the leftmost unreduced column.
        """
        p = self.field.p
        mat = [bytearray(r) for r in self._rows]
        nrows, ncols = self.nrows, self.ncols
        pivots: list[int] = []
        r = 0
        for c in range(ncols):
            if r >= nrows:
                break
            pivot_row = next((i for i in range(r, nrows) if mat[i][c]), None)
            if pivot_row is None:
                continue
            if pivot_row != r:
                mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
            pivot = mat[r][c]
            if pivot != 1:  # the pivot is its own inverse
                mat[r] = bytearray(x * pivot % p for x in mat[r])
            row_r = mat[r]
            for i in range(nrows):
                if i != r and mat[i][c]:
                    f = mat[i][c]
                    row_i = mat[i]
                    for j in range(c, ncols):
                        if row_r[j]:
                            row_i[j] = (row_i[j] - f * row_r[j]) % p
            pivots.append(c)
            r += 1
        reduced = FieldMatrix(self.field, tuple(bytes(row) for row in mat), ncols)
        return RrefResult(reduced, len(pivots), tuple(pivots))

    def rank(self) -> int:
        """Row rank by elimination on whole rows, each read as one int with
        a byte lane per entry.  A row is reduced at its last nonzero lane by
        the pivot that owns that lane: over GF(2) by XOR, over GF(3) by
        adding the pivot's multiple that cancels the lane, then one
        translate mod 3.  Lanes stay below 5, so no addition carries."""
        p, n = self.field.p, self.ncols
        # lane -> its pivot row over GF(2); over GF(3), (0, the multiple of the
        # pivot row that cancels a last entry 1, the one that cancels a 2)
        pivots: dict = {}
        for row in self._rows:
            r = int.from_bytes(row, "little")
            while r:
                lane = (r.bit_length() - 1) >> 3
                pivot = pivots.get(lane)
                if pivot is None:
                    if p == 2:
                        pivots[lane] = r
                    else:
                        double = _mod3(2 * r, n)
                        pivots[lane] = (0, double, r) if r >> 8 * lane == 1 else (0, r, double)
                    break
                r = r ^ pivot if p == 2 else _mod3(r + pivot[r >> 8 * lane], n)
        return len(pivots)


def _pack(p: int, vectors: Iterable[Iterable[int]]) -> tuple[bytes, ...]:
    """Each vector as bytes, its entries reduced mod p.  Only ints, bools
    among them, have a residue that `bytes` takes; any other entry is
    refused, not coerced.  The vectors are read before any entry is, so a
    TypeError of their own, such as a row that is not iterable, is raised
    as it is and not taken for an entry's."""
    vectors = [tuple(v) for v in vectors]
    try:
        return tuple(bytes(e % p for e in v) for v in vectors)
    except TypeError:
        raise InvalidArgument("matrix entries must be ints") from None


def _mod3(x: int, n: int) -> int:
    """Each of the n byte lanes of x reduced mod 3."""
    return int.from_bytes(x.to_bytes(n, "little").translate(_MOD[3]), "little")


# -- level sets of linear forms on F_q^b, one bit per vector ----------------


def _digit_planes(q: int, b: int) -> tuple[tuple[int, ...], ...]:
    """planes[i][t] is the q^b-bit integer with bit x set when base-q digit i
    of x equals t: a run of q^i ones at offset t q^i, repeated every q^(i+1)
    bits."""
    size = q**b
    out = []
    for i in range(b):
        run = q**i
        repeat = ((1 << size) - 1) // ((1 << run * q) - 1)  # bit 0 of every period
        out.append(tuple(repeat * ((1 << run) - 1) << t * run for t in range(q)))
    return tuple(out)


@lru_cache(maxsize=None)
def _level_tables(q: int, b: int) -> tuple[tuple, tuple]:
    """The level-set tables of F_q^b for column parts on the low b // 2
    digits and on the others, built from the digit planes once per (q, b)."""
    full = (1 << q**b) - 1
    planes = _digit_planes(q, b)
    return _level_table(q, full, planes[: b // 2]), _level_table(q, full, planes[b // 2 :])


def _level_table(q: int, full: int, planes: tuple[tuple[int, ...], ...]) -> tuple:
    """table[m] for the column part c on the given digits, m its digits read
    as a base-q numeral: over GF(2) the set of x with <x, c> = 1, over GF(3)
    the three sets of x with <x, c> = 0, 1, 2.  Each digit multiplies the
    table by q: an XOR with the digit's plane of ones over GF(2), and over
    GF(3) a one-hot rotate, value v coming from v - a t where the digit is
    t (the three sets partition the bits, so the third is an XOR of two)."""
    if q == 2:
        table = [0]
        for _, ones in planes:
            table += [t ^ ones for t in table]
        return tuple(table)
    table = [(full, 0, 0)]
    for p0, p1, p2 in planes:
        grown = []
        for a in (1, 2):
            for s in table:
                zero = s[0] & p0 | s[-a] & p1 | s[a] & p2
                one = s[1] & p0 | s[1 - a] & p1 | s[a - 2] & p2
                grown.append((zero, one, full ^ zero ^ one))
        table += grown
    return tuple(table)


# -- bit-sliced counts --------------------------------------------------
# A count per bit position x is a list of planes, bit x of planes[i] being
# bit i of the count; `width` planes hold it mod 2^width.


def _bit_planes(masks: list[int], width: int) -> list[int]:
    """planes[i] has bit x set when bit i of the number of masks with bit x
    set is 1, for width at least the bit length of len(masks).  A carry-save
    adder after Harley and Seal: each pair of masks goes through a full
    adder with plane 0, and a carry of plane i waits in held[i] for a second
    one, the two going through a full adder with plane i, like the digits of
    a binary counter.  A zero carry adds nothing, so it neither waits nor
    moves up; no count, and so no carry, reaches past the bit length of
    len(masks)."""
    planes, held = [0] * width, [0] * width
    it = iter(masks)
    for a, b in zip(it, it):
        p = planes[0]
        s = p ^ a
        planes[0], c = s ^ b, p & a | s & b
        i = 1
        while c:
            x = held[i]
            if not x:
                held[i] = c
                break
            held[i] = 0
            p = planes[i]
            s = p ^ x
            planes[i], c = s ^ c, p & x | s & c
            i += 1
    if len(masks) % 2:
        held[0] = masks[-1]
    for i, c in enumerate(held):  # half adders for what still waits
        while c:
            planes[i], c = planes[i] ^ c, planes[i] & c
            i += 1
    return planes


def _ripple(a: list[int], b: list[int], c: int = 0) -> list[int]:
    """a + b + c mod 2^len(a), plane by plane, c a mask of carries into
    plane 0: a ripple-carry adder."""
    out = []
    for x, y in zip(a, b):
        s = x ^ y
        out.append(s ^ c)
        c = x & y | s & c
    return out


def _yates(digits: int, counts: list[list[int]], sizes: list[int], full: int) -> None:
    """Replaces counts[h] by out[y] = sum over h of C_h[<y, h>] over GF(2),
    y and h in F_2^digits read as binary numerals, where C_h[0] is
    counts[h] and C_h[1] = sizes[h] minus it.  Yates's algorithm: stage i
    replaces bit i of h by bit i of y.  Of two entries a, b whose h differ
    in bit i only, b the one with the bit set, the output with y_i = 0 is
    a + b and the one with y_i = 1 is a + (size of b - b), each of size
    size of a + size of b; every count at 1 is its size minus its count at
    0, so the counts at 0 alone carry through.  Each pair's outputs replace
    its inputs as they form."""
    sizes = list(sizes)
    for i in range(digits):
        step = 1 << i
        for lo in range(len(counts)):
            if not lo & step:
                hi = lo + step
                a, b, size = counts[lo], counts[hi], sizes[hi]
                ones = [full if size >> j & 1 else 0 for j in range(len(b))]  # size - b = size + ~b + 1
                counts[lo], counts[hi] = _ripple(a, b), _ripple(a, _ripple(ones, [full ^ p for p in b], full))
                sizes[lo] = sizes[hi] = sizes[lo] + size


def _split(planes: list[int], full: int, n: int, counts: list[int]) -> None:
    """Adds each position of `full` to counts[w], w = n minus its count in
    the planes: a depth-first split of the planes, top down, ends in one
    popcount per weight."""
    stack = [(full, len(planes), n)]
    while stack:  # each entry: the positions whose count agrees above plane i
        mask, i, w = stack.pop()
        while i:
            i -= 1
            zeros = mask & planes[i]
            if zeros:
                if zeros != mask:
                    stack.append((mask ^ zeros, i, w))
                mask = zeros
                w -= 1 << i
        counts[w] += mask.bit_count()

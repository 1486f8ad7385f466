"""Exact dense linear algebra over GF(2) and GF(3).

Everything is integer arithmetic mod p; there is no floating point anywhere
in this package.  Matrices are immutable; rows are stored as byte strings.
`PrimeField` is the one place that decides which fields are supported.  In
GF(2) and GF(3) every nonzero element is its own inverse, so scaling by a
nonzero entry is how a row is normalised, and no inverse is computed.
"""

from __future__ import annotations

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
        packed = tuple(bytes(int(e) % field.p for e in row) for row in rows)
        if not packed or not packed[0]:
            raise InvalidArgument("matrix must be nonempty")
        return cls(field, packed, len(packed[0]))

    @classmethod
    def from_columns(cls, field: PrimeField, cols: Iterable[Iterable[int]]) -> "FieldMatrix":
        cols = [bytes(int(e) % field.p for e in c) for c in cols]
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


def _mod3(x: int, n: int) -> int:
    """Each of the n byte lanes of x reduced mod 3."""
    return int.from_bytes(x.to_bytes(n, "little").translate(_MOD[3]), "little")

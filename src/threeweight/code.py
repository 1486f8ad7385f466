"""Linear-code core: weight distributions, projectivity, and the structural
constructions (simplex, first-order Reed-Muller, direct sums, anticodes,
the 4*Delta family, the length-23 Golay code).

Codes are immutable.  Weight distributions come from full codeword
enumeration: the codewords are the differences of two half-dimension spans,
with words encoded as integers whose XOR popcount is (q - 1) times the
Hamming distance (a support mask over GF(2), three one-hot planes over
GF(3)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import GuardExceeded, InvalidArgument, SelfCheckFailed
from .gfmat import GF2, FieldMatrix, PrimeField

ENUMERATION_GUARD = 1 << 26


@dataclass(frozen=True)
class WeightDistribution:
    """Counts A_i of codewords per weight; zero counts are omitted."""

    n: int
    counts: tuple[tuple[int, int], ...]  # sorted (weight, frequency) pairs

    @classmethod
    def from_dict(cls, n: int, d: dict[int, int]) -> "WeightDistribution":
        return cls(n, tuple(sorted((w, a) for w, a in d.items() if a)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    def total(self) -> int:
        return sum(a for _, a in self.counts)

    def nonzero_weights(self) -> tuple[int, ...]:
        return tuple(w for w, _ in self.counts if w > 0)

    def frequency(self, w: int) -> int:
        return dict(self.counts).get(w, 0)


@dataclass(frozen=True)
class MultiplicityType:
    """Position multiplicity type: m[i] = number of projective equivalence
    classes of positions of size i.  Zero positions form a class of their
    own and make the code non-full-length."""

    m: tuple[tuple[int, int], ...]  # sorted (class size, count) pairs
    zero_positions: int

    def as_dict(self) -> dict[int, int]:
        return dict(self.m)


def _canonical_point(p: int, vec: tuple[int, ...]) -> tuple[int, ...] | None:
    """Scale so the first nonzero entry is 1, by that entry itself (its own
    inverse in GF(2) and GF(3)); None for the zero vector."""
    for e in vec:
        if e:
            return tuple(x * e % p for x in vec)
    return None


def _span_words(q: int, n: int, masks: tuple[tuple[int, ...], ...]) -> list[int]:
    """E(x), as in `_popcount_counts`, for every x in the span of the rows
    whose value masks are given, each once; each row multiplies the list
    by q."""
    if q == 2:
        words = [0]
        for _, ones in masks:
            words += [w ^ ones for w in words]
        return words
    # Adding c r moves coordinate j from plane v to plane v + c r_j: the
    # coordinates with c r_j = 1 rotate by n bits and those with c r_j = 2 by
    # 2n, within 3n bits.  The shifted parts never share a bit, so one shift
    # by 3n wraps both.
    n2, n3 = 2 * n, 3 * n
    planes = (1 << n3) - 1
    replicate = 1 | 1 << n | 1 << n2
    words = [(1 << n) - 1]  # E(0): every coordinate in plane 0
    for zeros, ones, twos in masks:
        keep, one, two = zeros * replicate, ones * replicate, twos * replicate
        span = words
        for by_n, by_2n in ((one, two), (two, one)):  # add r, then 2 r
            words = words + [
                (w & keep) | (t & planes) | t >> n3
                for w in span
                for t in (((w & by_n) << n) | ((w & by_2n) << n2),)
            ]
    return words


def _popcount_counts(q: int, n: int, masks: tuple[tuple[int, ...], ...]) -> list[int]:
    """counts[c] = number of codewords x with popcount(E(x) ^ E(0)) = c, so
    that counts[::q - 1] is the weight distribution.

    E encodes a vector as an integer with popcount(E(a) ^ E(b)) =
    (q - 1) d(a, b).  Over GF(2), E(x) is the support mask.  Over GF(3),
    E(x) is three n-bit planes side by side, plane v holding the coordinates
    equal to v: symbol v becomes the one-hot triple e_v, and the three
    triples form an equidistant binary code, at pairwise distance 2.

    The rows split at half = k // 2.  Every codeword is a - b for exactly
    one a in the span of the first half and b in the span of the second,
    since a span is closed under negation; so the q^k codewords are the
    pairs of two lists of about q^(k/2) words each.
    """
    half = len(masks) // 2
    low = _span_words(q, n, masks[:half])
    high = _span_words(q, n, masks[half:])
    counts = [0] * ((q - 1) * n + 1)
    for a in low:
        for b in high:
            counts[(a ^ b).bit_count()] += 1
    return counts


class LinearCode:
    """An [n, k]_q linear code given by a full-row-rank generator matrix."""

    __slots__ = ("field", "generator", "n", "k", "_distribution", "_projectivity", "_points")

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
        self._points: frozenset[tuple[int, ...]] = frozenset()

    # -- basics --------------------------------------------------------

    @property
    def q(self) -> int:
        return self.field.p

    def params(self) -> tuple[int, int, int]:
        return (self.q, self.n, self.k)

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}]_{self.q})"

    def weight_distribution(self) -> WeightDistribution:
        """Exact counts by full codeword enumeration (guarded at 2^26)."""
        if self._distribution is not None:
            return self._distribution
        if self.q**self.k > ENUMERATION_GUARD:
            raise GuardExceeded(f"q^k = {self.q}**{self.k} exceeds the enumeration guard")
        counts = _popcount_counts(self.q, self.n, self.generator.value_masks())
        if self.q == 3 and any(counts[1::2]):
            raise SelfCheckFailed("two GF(3) encodings differed in an odd number of bits")
        dist = WeightDistribution.from_dict(self.n, dict(enumerate(counts[:: self.q - 1])))
        if dist.total() != self.q**self.k:
            raise SelfCheckFailed(f"enumeration counted {dist.total()} codewords, not q^k")
        self._distribution = dist
        return dist

    def is_projective(self) -> tuple[bool, MultiplicityType]:
        """Full-length with pairwise projectively inequivalent positions;
        computed once and kept, like the weight distribution, together with
        the canonical points of the columns."""
        if self._projectivity is not None:
            return self._projectivity
        classes: dict[tuple[int, ...], int] = {}
        zero_positions = 0
        for col in self.generator.columns():
            rep = _canonical_point(self.q, col)
            if rep is None:
                zero_positions += 1
            else:
                classes[rep] = classes.get(rep, 0) + 1
        sizes: dict[int, int] = {}
        for c in classes.values():
            sizes[c] = sizes.get(c, 0) + 1
        mult = MultiplicityType(tuple(sorted(sizes.items())), zero_positions)
        flag = zero_positions == 0 and all(c == 1 for c in classes.values())
        self._points = frozenset(classes)
        self._projectivity = (flag, mult)
        return self._projectivity

    def point_set(self) -> frozenset[tuple[int, ...]]:
        """Canonical projective points spanned by the generator columns."""
        self.is_projective()
        return self._points

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
        points = self.point_set()
        comp = [pt for pt in _projective_points(self.q, self.k) if pt not in points]
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
    if k < 1:
        raise InvalidArgument("simplex needs k >= 1")
    field = PrimeField(q)
    return LinearCode(field, FieldMatrix.from_columns(field, _projective_points(q, k)))


def reed_muller(q: int, k: int) -> LinearCode:
    """First-order Reed-Muller code RM_q(k): an affine subspace of points.

    Columns are all (1, a_2, ..., a_k); the all-one word is the last
    generator row (the 4*Delta construction relies on that layout).
    """
    if k < 2:
        raise InvalidArgument("first-order Reed-Muller needs k >= 2")
    field = PrimeField(q)
    cols = [pt for pt in _projective_points(q, k) if pt[0] == 1]
    # rows: coordinate functionals a_2..a_k, then the all-one row
    rows = [tuple(c[i] for c in cols) for i in range(1, k)]
    rows.append(tuple(1 for _ in cols))
    return LinearCode(field, FieldMatrix.from_rows(field, rows))


def parity_check_code(n: int) -> LinearCode:
    """Binary [n, n-1] even-weight code."""
    if n < 2:
        raise InvalidArgument("parity-check code needs n >= 2")
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


def theorem_4delta(a: int) -> LinearCode:
    """The extremal [4*Delta, 2a+3] code with weights (Delta, 2Delta, 3Delta),
    Delta = 2^a: two first-order Reed-Muller blocks of dimension a+2 glued
    so the left block's all-one row carries the right block's first row.

    Weight enumerator (checked by enumeration):
    1 + (4D-3) x^D + (8D^2-8D+3) x^2D + (4D-1) x^3D.
    """
    if a < 3:
        raise InvalidArgument("the 4*Delta construction needs a >= 3")
    delta = 1 << a
    rm = reed_muller(2, a + 2)  # all-one word is the last row
    rm_rows = rm.generator.to_rows()
    half = rm.n  # 2 * delta
    zero = (0,) * half
    rows: list[tuple[int, ...]] = []
    for r in rm_rows[:-1]:
        rows.append(r + zero)
    rows.append(rm_rows[-1] + rm_rows[0])  # shared row: left all-ones, right r_1
    for r in rm_rows[1:]:
        rows.append(zero + r)
    code = LinearCode(GF2, FieldMatrix.from_rows(GF2, rows))
    if (code.n, code.k) != (4 * delta, 2 * a + 3):
        raise SelfCheckFailed(f"4*Delta code has parameters [{code.n},{code.k}]")
    expected = {
        0: 1,
        delta: 4 * delta - 3,
        2 * delta: 8 * delta * delta - 8 * delta + 3,
        3 * delta: 4 * delta - 1,
    }
    if code.weight_distribution().as_dict() != expected:
        raise SelfCheckFailed("4*Delta code has the wrong enumerator")
    return code


def theorem_4delta_minus1(a: int) -> LinearCode:
    """The length 4*Delta - 1 companion: Sim_2(a+1) + RM_2(a+2) (direct sum).

    Weight enumerator (checked): 1 + (6D-3) x^D + (8D^2-8D+3) x^2D
    + (2D-1) x^3D with D = 2^a.
    """
    if a < 1:
        raise InvalidArgument("needs a >= 1")
    delta = 1 << a
    code = simplex(2, a + 1).direct_sum(reed_muller(2, a + 2))
    expected = {
        0: 1,
        delta: 6 * delta - 3,
        2 * delta: 8 * delta * delta - 8 * delta + 3,
        3 * delta: 2 * delta - 1,
    }
    if code.weight_distribution().as_dict() != expected:
        raise SelfCheckFailed("4*Delta - 1 code has the wrong enumerator")
    return code

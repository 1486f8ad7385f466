"""Coset graphs of dual codes, exact spectrum verification, the s-walk
regularity test, and triple-sum-set constants.

The coset graph of the dual of a projective [n,k]_q code lives on the q^k
syndromes; two syndromes are adjacent when they differ by a nonzero scalar
multiple of a generator column.  That makes it a Cayley graph on (F_q^k, +)
with connection set Omega, the scalar closure of the columns: `CosetGraph`
takes the column points themselves and closes them under scalars, so no
set it builds can miss a multiple.  One exact character transform gives
every quantity:

- the spectrum lambda_u = sum over w in Omega of chi_u(w) is the transform
  of the indicator of Omega, kept on the graph;
- the length-s walk counts from 0 are q^-k sum_u lambda_u^s chi_u(-h), an
  inverse transform and an exact division, kept per length; they decide
  s-walk-regularity (`is_s_swrg`);
- triple-sum counts are the length-3 walk counts, because an ordered triple
  (x, y, z) in Omega^3 with x + y + z = h is a walk 0 -> x -> x+y -> h, so
  `tss_check` is a view of `is_s_swrg(graph, 3)` on the same graph.

The transform is the Walsh transform for q = 2 and the same radix-q
butterfly in the group ring Z[C_q] for q = 3 (`_character_sums`).
Independent second routes live in the test suite as oracles.

Triple-sum counts are ordered: sigma_0/sigma_1 count ordered triples
(x, y, z) in Omega^3 with x + y + z = h.  (An unordered convention would
differ by a fixed combinatorial factor; both constants are always reported,
so a convention mismatch is visible.)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import add, mul, not_, sub
from typing import Iterable, Sequence

from .code import LinearCode
from .errors import GuardExceeded, InvalidArgument, SelfCheckFailed
from .gfmat import PrimeField

VERTEX_GUARD = 1 << 14
WALK_GUARD = 9


@dataclass(frozen=True)
class TssInstance:
    """Result of a triple-sum-set check on a scalar-closed Omega."""

    size: int
    consistent: bool
    sigma0: int | None
    sigma1: int | None
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None


@dataclass(frozen=True)
class SwrgResult:
    is_swrg: bool
    s: int
    constants: tuple[int, int, int] | None  # (equal, adjacent, non-adjacent)
    witness: tuple[int, int] | None = None  # two group elements, same class


def encode_vector(vec: Sequence[int], q: int) -> int:
    code = 0
    for digit in reversed(vec):
        code = code * q + digit % q
    return code


def decode_vector(code: int, q: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        out.append(code % q)
        code //= q
    return tuple(out)


def vertex_guard_excess(q: int, k: int) -> str | None:
    """Why F_q^k gets no coset graph (raised by the constructor, printed by
    `verify`), or None when its q^k vertices are within VERTEX_GUARD."""
    n = q**k
    return f"q^k = {n} vertices over the vertex guard {VERTEX_GUARD}" if n > VERTEX_GUARD else None


class CosetGraph:
    """Cayley graph on F_q^k, q in {2, 3}; its connection set `omega` (sorted,
    encoded) is the scalar closure of the given nonzero vectors."""

    __slots__ = ("q", "k", "nvertices", "omega", "_indicator", "_lambda", "_walks", "_swrg")

    def __init__(self, q: int, k: int, points: Iterable[Sequence[int]]):
        PrimeField(q)  # rejects every q but 2 and 3
        excess = vertex_guard_excess(q, k)
        if excess:
            raise GuardExceeded(excess)
        self.q = q
        self.k = k
        self.nvertices = q**k
        omega = set()
        for vec in points:
            if len(vec) != k or not all(0 <= e < q for e in vec) or not any(vec):
                raise InvalidArgument(f"{tuple(vec)} is not a nonzero vector of F_{q}^{k}")
            omega.update(encode_vector([lam * e for e in vec], q) for lam in range(1, q))
        self.omega = tuple(sorted(omega))
        indicator = bytearray(self.nvertices)
        for w in omega:
            indicator[w] = 1
        self._indicator = bytes(indicator)  # 1 at the vertices adjacent to 0
        self._lambda = _character_sums([self._indicator], q, k)  # the eigenvalue at each character
        self._walks = {}  # walk length -> counts from 0, filled by walk_counts
        self._swrg = {}  # walk length -> SwrgResult, filled by is_s_swrg

    def _add_table(self, w: int) -> list[int]:
        """table[h] = h + w, extended by one base-q digit block at a time."""
        q = self.q
        table = [0]
        block = 1
        for d in decode_vector(w, q, self.k):
            table = [((j + d) % q) * block + x for j in range(q) for x in table]
            block *= q
        return table

    @property
    def degree(self) -> int:
        return len(self.omega)

    def apply_adjacency(self, vec: list[int]) -> list[int]:
        """(A vec)[h] = sum over connection elements of vec[h - w]: the
        inverse transform of lambda times the transform of vec."""
        transform = _character_transform([vec], self.q, self.k)
        spectrum = [list(map(mul, self._lambda, plane)) for plane in transform]
        return _character_sums(spectrum, self.q, self.k, inverse=True)

    def walk_counts(self, s: int) -> list[int]:
        """Number of length-s walks from 0 to each vertex, exactly, as the
        inverse transform of lambda^s; each length is computed once and kept."""
        if s > WALK_GUARD:
            raise GuardExceeded(f"walk length {s} over guard {WALK_GUARD}")
        if s not in self._walks:
            powers = [x**s for x in self._lambda]
            self._walks[s] = _character_sums([powers], self.q, self.k, inverse=True)
        return list(self._walks[s])

    def adjacency_lines(self) -> list[str]:
        tables = [self._add_table(w) for w in self.omega]
        return [f"{v}: " + " ".join(str(u) for u in sorted(t[v] for t in tables))
                for v in range(self.nvertices)]

    def summary(self) -> dict:
        eigs = self.spectrum_multiplicities()
        return {
            "q": self.q,
            "k": self.k,
            "vertices": self.nvertices,
            "degree": self.degree,
            "eigenvalues": {str(e): m for e, m in sorted(eigs.items(), reverse=True)},
        }

    def spectrum_multiplicities(self) -> dict[int, int]:
        """Exact eigenvalue multiset: the histogram of lambda."""
        return dict(Counter(self._lambda))


def _character_transform(planes: list[list[int]], q: int, k: int, sign: int = 1) -> list[list[int]]:
    """sum_h x[h] zeta^(sign <u, h>) for every u in F_q^k, x[h] = sum_c
    planes[c][h] zeta^c (missing planes are zero).  For q = 2, zeta = -1 and
    this is the Walsh transform; for odd q a product with zeta^r rotates the
    planes of Z[C_q].  Each pass transforms the top base-q digit and moves
    it to the bottom, so k passes put every digit back in place."""
    if q == 2:
        return [_walsh_transform(planes[0])]
    n = q**k
    m = n // q
    planes = planes + [[0] * n] * (q - len(planes))
    for _ in range(k):
        blocks = [[plane[j * m:(j + 1) * m] for j in range(q)] for plane in planes]
        planes = [[0] * n for _ in range(q)]
        for r in range(q):
            for c in range(q):  # the coefficient of zeta^c in sum_j zeta^(sign r j) x_j
                terms = [blocks[(c - sign * r * j) % q][j] for j in range(q)]
                planes[c][r::q] = map(sum, zip(*terms))
    return planes


def _character_sums(planes: list[list[int]], q: int, k: int, inverse: bool = False) -> list[int]:
    """The character transform, or its inverse with the factor q^-k, in
    integers: an entry v of Z[C_q] is the integer v[0] - v[1] exactly when
    v[1] = ... = v[q-1]; any other entry, or a remainder mod q^k, raises."""
    out = _character_transform(planes, q, k, -1 if inverse else 1)
    if any(plane != out[1] for plane in out[2:]):
        raise SelfCheckFailed("a character sum is not an integer")
    sums = out[0] if q == 2 else list(map(sub, out[0], out[1]))
    if not inverse:
        return sums
    size = q**k
    if any(x % size for x in sums):
        raise SelfCheckFailed(f"a character sum is not a multiple of q^k = {size}")
    return [x // size for x in sums]


def _walsh_transform(vec: list[int]) -> list[int]:
    out = list(vec)
    half = len(out) // 2
    for _ in range(half.bit_length()):
        lo, hi = out[:half], out[half:]
        out[0::2] = map(add, lo, hi)
        out[1::2] = map(sub, lo, hi)
    return out


def coset_graph(code: LinearCode) -> CosetGraph:
    """Coset graph of the dual code, on syndrome space; n(q-1)-regular.
    Omega is the scalar closure of the column points `is_projective` kept."""
    flag, _ = code.is_projective()
    if not flag:
        raise InvalidArgument("coset graph construction requires a projective code")
    g = CosetGraph(code.q, code.k, code.point_set())
    if g.degree != code.n * (code.q - 1):
        raise SelfCheckFailed(f"coset graph degree {g.degree} != n(q-1) = {code.n * (code.q - 1)}")
    return g


def eigenvalues_from_weights(q: int, n: int, weights: Iterable[int]) -> tuple[int, ...]:
    """The claimed distinct eigenvalues theta_i = n(q-1) - q*w_i,
    descending, so the degree comes first; weights must include 0."""
    ws = tuple(weights)
    if len(set(ws)) != len(ws):
        raise InvalidArgument(f"weights must be distinct, got {ws}")
    if 0 not in ws:
        raise InvalidArgument("weight list must include w_0 = 0")
    return tuple(sorted((n * (q - 1) - q * w for w in ws), reverse=True))


def verify_spectrum(graph: CosetGraph, eigenvalues: Iterable[int]) -> bool:
    """True iff the distinct eigenvalues are, as a set, the claimed ones.

    The character spectrum is exact, and its largest value is the degree
    (the trivial character), so equal sets also put the degree first in
    the descending claim of `eigenvalues_from_weights`.
    """
    return set(graph.spectrum_multiplicities()) == set(eigenvalues)


def is_s_swrg(graph: CosetGraph, s: int) -> SwrgResult:
    """Walk-regularity test: the number of length-s walks between two
    vertices may depend only on equal/adjacent/non-adjacent.  An empty class
    has the constant 0; a class that is not constant gives the witness pair
    (its first element with the least count, its first with the greatest).
    Each length is decided once per graph and kept; the adjacency indicator
    splits the classes.
    """
    if s < 3 or s % 2 == 0:
        raise InvalidArgument("the walk-regularity test is for odd s >= 3")
    if s not in graph._swrg:
        graph._swrg[s] = _walk_regularity(graph, s)
    return graph._swrg[s]


def _walk_regularity(graph: CosetGraph, s: int) -> SwrgResult:
    counts = graph.walk_counts(s)
    outside = list(map(not_, graph._indicator))
    outside[0] = False  # vertex 0 is the class "equal"
    constants = [counts[0]]
    for selector in (graph._indicator, outside):
        vals = list(compress(counts, selector))
        lo, hi = min(vals, default=0), max(vals, default=0)
        if lo != hi:
            cls = list(compress(range(graph.nvertices), selector))
            return SwrgResult(False, s, None, (cls[vals.index(lo)], cls[vals.index(hi)]))
        constants.append(lo)
    return SwrgResult(True, s, tuple(constants))


def tss_check(graph: CosetGraph) -> TssInstance:
    """Ordered triple-sum counts h = x + y + z over Omega^3 of the graph's
    connection set.

    These counts are the length-3 walk counts, so this is a view of
    `is_s_swrg(graph, 3)`: sigma0 is its adjacent constant and sigma1 its
    non-adjacent one, each None when its class is empty, and an inconsistent
    result carries its witness pair decoded to vectors.
    """
    m = graph.degree
    walk = is_s_swrg(graph, 3)  # kept on the graph: `verify --graph --tss` tests once
    if not walk.is_swrg:
        wit = tuple(decode_vector(h, graph.q, graph.k) for h in walk.witness)
        return TssInstance(m, False, None, None, wit)
    _, sigma0, sigma1 = walk.constants
    return TssInstance(m, True, sigma0 if m else None, sigma1 if m < graph.nvertices - 1 else None)

"""Coset graphs of dual codes, exact spectrum verification, the s-walk
regularity test, and triple-sum-set constants.

The coset graph of the dual of a projective [n,k]_q code lives on the q^k
syndromes; two syndromes are adjacent when they differ by a nonzero scalar
multiple of a generator column.  That makes it a Cayley graph on (F_q^k, +)
with connection set Omega (the scalar closure of the columns), which is what
all the exact algorithms here exploit.  Each quantity has one route:

- walk counts are convolution powers of the indicator of Omega
  (`CosetGraph.walk_counts`, repeated application of the adjacency);
- the spectrum comes from additive characters
  (`CosetGraph.spectrum_multiplicities`), and `verify_spectrum` compares
  its distinct values with the claim;
- triple-sum counts are the length-3 walk counts, because an ordered triple
  (x, y, z) in Omega^3 with x + y + z = h is a walk 0 -> x -> x+y -> h, so
  `tss_check` reads its constants and witness from the walk-regularity test
  `is_s_swrg(graph, 3)` on the same graph.

Independent second routes (direct |Omega|^3 counting, the annihilating
polynomial, a dense matrix power, digit-wise translation tables) live in
the test suite as oracles.

Triple-sum counts are ordered: sigma_0/sigma_1 count ordered triples
(x, y, z) in Omega^3 with x + y + z = h.  (An unordered convention would
differ by a fixed combinatorial factor; both constants are always reported,
so a convention mismatch is visible.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .code import LinearCode
from .errors import (
    DegenerateWeights,
    GuardExceeded,
    InvalidArgument,
    NotProjective,
    SelfCheckFailed,
    ZeroInOmega,
)

VERTEX_GUARD = 1 << 14
WALK_GUARD = 9
TSS_GUARD = 1 << 30


@dataclass(frozen=True)
class SpectrumClaim:
    """Claimed distinct eigenvalues, descending; the largest is the degree."""

    eigenvalues: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.eigenvalues)) != len(self.eigenvalues):
            raise DegenerateWeights("claimed eigenvalues must be distinct")
        if tuple(sorted(self.eigenvalues, reverse=True)) != self.eigenvalues:
            raise ValueError("eigenvalues must be sorted descending")


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


class CosetGraph:
    """Cayley graph on F_q^k with a scalar-closed connection set."""

    __slots__ = ("q", "k", "nvertices", "omega", "_omega_set", "_shift", "_walks")

    def __init__(self, q: int, k: int, omega: Iterable[int]):
        self.q = q
        self.k = k
        self.nvertices = q**k
        self.omega = tuple(sorted(set(omega)))
        self._omega_set = frozenset(self.omega)
        if 0 in self._omega_set:
            raise ZeroInOmega("connection set must not contain 0")
        if self.nvertices > VERTEX_GUARD:
            raise GuardExceeded(f"vertex count {self.nvertices} over guard {VERTEX_GUARD}")
        # shift[w] is the permutation h -> h + w, precomputed per connection element
        if q == 2:
            self._shift = None  # xor is cheap enough inline
        else:
            self._shift = {w: self._add_table(w) for w in self.omega}
            # the spectrum and the walk counts rely on scalar closure
            for w, table in self._shift.items():
                x = w
                for lam in range(2, q):
                    x = table[x]  # lam * w = (lam - 1) * w + w
                    if x not in self._omega_set:
                        raise InvalidArgument(f"connection set lacks {lam} * {w}")
        self._walks = {}  # walk length -> counts from 0, filled by walk_counts

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

    def neighbors(self, v: int) -> list[int]:
        if self.q == 2:
            return sorted(v ^ w for w in self.omega)
        return sorted(self._shift[w][v] for w in self.omega)

    def apply_adjacency(self, vec: list[int]) -> list[int]:
        """(A vec)[h] = sum over connection elements of vec[h - w]."""
        n = self.nvertices
        out = [0] * n
        if self.q == 2:
            for w in self.omega:
                for h in range(n):
                    out[h] += vec[h ^ w]
        else:
            for w in self.omega:
                table = self._shift[w]
                for h in range(n):
                    out[table[h]] += vec[h]
        return out

    def walk_counts(self, s: int) -> list[int]:
        """Number of length-s walks from 0 to each vertex, exactly; the
        graph is immutable, so each length is computed once and kept."""
        if s > WALK_GUARD:
            raise GuardExceeded(f"walk length {s} over guard {WALK_GUARD}")
        if s not in self._walks:
            vec = [0] * self.nvertices
            vec[0] = 1
            for _ in range(s):
                vec = self.apply_adjacency(vec)
            self._walks[s] = vec
        return list(self._walks[s])

    def adjacency_lines(self) -> list[str]:
        return [f"{v}: " + " ".join(str(u) for u in self.neighbors(v)) for v in range(self.nvertices)]

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
        """Exact eigenvalue multiset via additive characters."""
        if self.q == 2:
            vals = _walsh_transform([1 if i in self._omega_set else 0 for i in range(self.nvertices)])
            out: dict[int, int] = {}
            for v in vals:
                out[v] = out.get(v, 0) + 1
            return out
        # odd q: the line {w, 2w, ..., (q-1)w} contributes q - 1 when
        # <u, w> = 0 and -1 otherwise (a full sum of nontrivial characters)
        q = self.q
        lines = []
        seen = set()
        for w in self.omega:
            if w in seen:
                continue
            wv = decode_vector(w, q, self.k)
            seen.update(encode_vector([lam * e for e in wv], q) for lam in range(1, q))
            lines.append(wv)
        out = {}
        for u in range(self.nvertices):
            uv = decode_vector(u, q, self.k)
            lam = 0
            for wv in lines:
                dot = sum(a * b for a, b in zip(uv, wv)) % q
                lam += q - 1 if dot == 0 else -1
            out[lam] = out.get(lam, 0) + 1
        return out


def _walsh_transform(vec: list[int]) -> list[int]:
    out = list(vec)
    h = 1
    n = len(out)
    while h < n:
        for i in range(0, n, h * 2):
            for j in range(i, i + h):
                x, y = out[j], out[j + h]
                out[j], out[j + h] = x + y, x - y
        h *= 2
    return out


def omega_from_code(code: LinearCode) -> tuple[tuple[int, ...], ...]:
    """Scalar closure of the generator columns, as vectors in F_q^k."""
    q = code.q
    omega = set()
    for col in code.generator.columns():
        for lam in range(1, q):
            omega.add(tuple((lam * e) % q for e in col))
    return tuple(sorted(omega))


def coset_graph(code: LinearCode) -> CosetGraph:
    """Coset graph of the dual code, on syndrome space; n(q-1)-regular."""
    flag, _ = code.is_projective()
    if not flag:
        raise NotProjective("coset graph construction requires a projective code")
    if code.q**code.k > VERTEX_GUARD:
        raise GuardExceeded("syndrome space over the vertex guard")
    omega = [encode_vector(v, code.q) for v in omega_from_code(code)]
    g = CosetGraph(code.q, code.k, omega)
    if g.degree != code.n * (code.q - 1):
        raise SelfCheckFailed(f"coset graph degree {g.degree} != n(q-1) = {code.n * (code.q - 1)}")
    return g


def eigenvalues_from_weights(q: int, n: int, weights: Iterable[int]) -> SpectrumClaim:
    """theta_i = n(q-1) - q*w_i, descending; weights must include 0."""
    ws = tuple(weights)
    if len(set(ws)) != len(ws):
        raise DegenerateWeights(f"weights must be distinct, got {ws}")
    if 0 not in ws:
        raise ValueError("weight list must include w_0 = 0")
    return SpectrumClaim(tuple(sorted((n * (q - 1) - q * w for w in ws), reverse=True)))


def verify_spectrum(graph: CosetGraph, claim: SpectrumClaim) -> bool:
    """True iff the distinct eigenvalues are exactly the claimed ones.

    The character spectrum is exact, and its largest value is the degree
    (the trivial character), so equal sets also put the degree first in
    the descending claim.
    """
    return set(graph.spectrum_multiplicities()) == set(claim.eigenvalues)


def is_s_swrg(graph: CosetGraph, s: int) -> SwrgResult:
    """Walk-regularity test: the number of length-s walks between two
    vertices may depend only on equal/adjacent/non-adjacent.  An empty class
    has the constant 0; a class that is not constant gives the witness pair
    (its first element with the least count, its first with the greatest).
    """
    if s < 3 or s % 2 == 0:
        raise InvalidArgument("the walk-regularity test is for odd s >= 3")
    counts = graph.walk_counts(s)
    non_adjacent = [h for h in range(1, graph.nvertices) if h not in graph._omega_set]
    constants = [counts[0]]
    for cls in (graph.omega, non_adjacent):
        vals = [counts[h] for h in cls]
        lo, hi = min(vals, default=0), max(vals, default=0)
        if lo != hi:
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
    if m**3 > TSS_GUARD:
        raise GuardExceeded("|Omega|^3 over guard")
    walk = is_s_swrg(graph, 3)
    if not walk.is_swrg:
        wit = tuple(decode_vector(h, graph.q, graph.k) for h in walk.witness)
        return TssInstance(m, False, None, None, wit)
    _, sigma0, sigma1 = walk.constants
    return TssInstance(m, True, sigma0 if m else None, sigma1 if m < graph.nvertices - 1 else None)

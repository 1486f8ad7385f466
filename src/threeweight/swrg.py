"""Coset graphs of dual codes, their spectra, the s-walk-regularity test,
and triple-sum-set constants, all read from the weight distribution.

The coset graph of the dual of a projective [n,k]_q code lives on the q^k
syndromes; two syndromes are adjacent when they differ by a nonzero scalar
multiple of a generator column.  That makes it a Cayley graph on (F_q^k, +)
with connection set Omega, the scalar closure of the columns.  Vertices
are the base-q numerals of their vectors, the first coordinate the lowest
digit, and `coset_graph` hands `CosetGraph` Omega in that form: the
numerals of the columns and all their nonzero multiples, read in one lane
pass over the packed rows (`LinearCode.scalar_numerals`, the pass
`is_projective` runs and keeps), so no multiple is missed.  Its eigenvalue
at the character u is

  lambda_u = sum over columns c and scalars l != 0 of zeta^(l <u, c>)
           = n(q-1) - q wt(uG),

so the spectrum is the multiset {n(q-1) - q w : A_w} (`coset_graph`), with
the degree at u = 0.  Every other quantity follows from it:

- the graph is s-walk-regular exactly when A^s = alpha I + beta A + gamma J.
  J vanishes off the trivial character, so this asks for theta^s =
  alpha + beta theta on the distinct nontrivial eigenvalues theta: with
  four or more there is no such line (x^s - beta x - alpha has at most
  three real roots for odd s), with three it is the van Dam-Omidi equation
  `curve.vandam_lhs(s, theta1, theta2, theta3) == 0`, and two always lie on
  one.  The trivial character gives gamma = (deg^s - alpha - beta deg) /
  q^k, and the walk constants (equal, adjacent, non-adjacent) are
  (alpha + gamma, beta + gamma, gamma) (`is_s_swrg`);
- triple-sum counts are the length-3 walk counts, because an ordered triple
  (x, y, z) in Omega^3 with x + y + z = h is a walk 0 -> x -> x+y -> h, so
  `tss_check` is a view of `is_s_swrg(graph, 3)` on the same graph.

Nothing of size q^k is built on that route.  The adjacency listing and
`apply_adjacency` visit every vertex, reading `neighbour_rows`, which holds
O(q^k + |Omega|) ints at once, so `VERTEX_GUARD` bounds only the size of
their output; the rest is bounded by the enumeration guard of the weight
distribution.  The character transform over all q^k vertices and the walk
counts it gives live in the test suite as the independent oracle.

Triple-sum counts are ordered: sigma_0/sigma_1 count ordered triples
(x, y, z) in Omega^3 with x + y + z = h.  (An unordered convention would
differ by a fixed combinatorial factor; both constants are always reported,
so a convention mismatch is visible.)  `TssInstance` and `SwrgResult` are
`NamedTuple`s: immutable, iterable, and equal to the plain tuple of their
fields.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, NamedTuple

from .code import LinearCode
from .curve import vandam_lhs
from .errors import GuardExceeded, InvalidArgument, SelfCheckFailed
from .gfmat import PrimeField

VERTEX_GUARD = 1 << 14
WALK_GUARD = 9


class TssInstance(NamedTuple):
    """Result of a triple-sum-set check on a scalar-closed Omega."""

    size: int
    consistent: bool
    sigma0: int | None
    sigma1: int | None


class SwrgResult(NamedTuple):
    is_swrg: bool
    s: int
    constants: tuple[int, int, int] | None  # (equal, adjacent, non-adjacent)


def vertex_guard_excess(q: int, k: int) -> str | None:
    """Why F_q^k gets no vertex-by-vertex work (the adjacency listing and
    `apply_adjacency` raise it), or None within VERTEX_GUARD."""
    if not (isinstance(q, int) and isinstance(k, int)):
        raise InvalidArgument(f"the vertex guard needs an int q and k, not {(q, k)!r}")
    n = q**k
    return f"q^k = {n} vertices over the vertex guard {VERTEX_GUARD}" if n > VERTEX_GUARD else None


class CosetGraph:
    """Cayley graph on F_q^k, q in {2, 3}: `omega` holds the given numerals
    of nonzero vectors, sorted and deduplicated, and `spectrum` maps each
    eigenvalue to its multiplicity.  Precondition: Omega is closed under
    nonzero scalars, as `LinearCode.scalar_numerals` gives it, so the graph
    is undirected; only its ends are checked, to lie in 1 .. q^k - 1."""

    __slots__ = ("q", "k", "nvertices", "omega", "_spectrum")

    def __init__(self, q: int, k: int, omega: Iterable[int], spectrum: Mapping[int, int]):
        PrimeField(q)  # rejects every q but 2 and 3
        if not isinstance(k, int) or k < 1:
            raise InvalidArgument(f"a coset graph needs an int k >= 1, not {k!r}")
        self.q = q
        self.k = k
        self.nvertices = q**k
        self.omega = tuple(sorted(set(omega)))
        for w in self.omega[:1] + self.omega[-1:]:  # the least and the greatest
            if not 0 < w < self.nvertices:
                raise InvalidArgument(f"numeral {w} is not a nonzero vector of F_{q}^{k}")
        self._spectrum = dict(spectrum)

    def _add_table(self, w: int, k: int) -> list[int]:
        """table[h] = h + w over F_q^k, extended by one base-q digit block
        at a time, the digits of w taken lowest first."""
        q = self.q
        table = [0]
        block = 1
        for _ in range(k):
            w, d = divmod(w, q)
            table = [((j + d) % q) * block + x for j in range(q) for x in table]
            block *= q
        return table

    @property
    def degree(self) -> int:
        return len(self.omega)

    def neighbour_rows(self) -> Iterator[list[int]]:
        """The sorted h + w over Omega for each vertex h in order; over the
        vertex guard, `GuardExceeded` at the call.  Numerals split at digit
        k // 2, whose blocks add apart: h + w = high_h[w_hi] m + low_h[w_lo]
        with m = q^(k//2), from the q^(k//2) low tables, built once, and one
        high table per block of h, so O(q^k + |Omega|) ints are held."""
        excess = vertex_guard_excess(self.q, self.k)
        if excess:
            raise GuardExceeded(excess)
        lo = self.k // 2
        m = self.q**lo
        low = [self._add_table(v, lo) for v in range(m)]
        split = [divmod(w, m) for w in self.omega]
        highs = ([x * m for x in self._add_table(h, self.k - lo)] for h in range(self.q ** (self.k - lo)))
        return (sorted([high[a] + low_h[b] for a, b in split]) for high in highs for low_h in low)

    def apply_adjacency(self, vec: list[int]) -> list[int]:
        """(A vec)[h] = sum over w in Omega of vec[h + w], which is
        vec[h - w] summed, since Omega is closed under negation."""
        return [sum(map(vec.__getitem__, row)) for row in self.neighbour_rows()]

    def adjacency_lines(self) -> Iterator[str]:
        """The listing's lines, "h: " and the neighbours of h, for each vertex h in order."""
        return (f"{h}: " + " ".join(map(str, row)) for h, row in enumerate(self.neighbour_rows()))

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
        """Exact eigenvalue multiset, as given at construction."""
        return dict(self._spectrum)


def coset_graph(code: LinearCode) -> CosetGraph:
    """Coset graph of the dual code, on syndrome space; n(q-1)-regular.
    Omega is the numerals of the generator columns and their nonzero
    multiples, n(q-1) distinct ones in a projective code, and the spectrum
    is {n(q-1) - q w : A_w} from the weight distribution."""
    flag, _ = code.is_projective()
    if not flag:
        raise InvalidArgument("coset graph construction requires a projective code")
    q, n, _ = code.params()
    spectrum = {n * (q - 1) - q * w: a for w, a in code.weight_distribution().counts}
    g = CosetGraph(q, code.k, code.scalar_numerals(), spectrum)
    if g.degree != n * (q - 1):
        raise SelfCheckFailed(f"coset graph degree {g.degree} != n(q-1) = {n * (q - 1)}")
    return g


def verify_spectrum(graph: CosetGraph) -> tuple[int, ...]:
    """The distinct eigenvalues, descending, so the degree comes first,
    once the multiset has passed three exact trace identities, or
    `SelfCheckFailed` is raised: the multiplicities sum to q^k, the
    eigenvalues to trace(A) = 0 (no loops; B_1 = 0 for a code) and their
    squares to trace(A^2) = q^k * degree (B_2 = 0 for a projective code).
    """
    spectrum = graph.spectrum_multiplicities()
    moments = [sum(m * theta**j for theta, m in spectrum.items()) for j in (0, 1, 2)]
    expected = [graph.nvertices, 0, graph.nvertices * graph.degree]
    if moments != expected:
        raise SelfCheckFailed(f"spectral moments 0..2 are {moments}, not {expected}")
    return tuple(sorted(spectrum, reverse=True))


def is_s_swrg(graph: CosetGraph, s: int) -> SwrgResult:
    """Walk-regularity test: the number of length-s walks between two
    vertices may depend only on equal/adjacent/non-adjacent, decided on the
    distinct nontrivial eigenvalues (see the module docstring).  An empty
    class has the constant 0.
    """
    if not isinstance(s, int):
        raise InvalidArgument(f"the walk length must be an integer, not {type(s).__name__}")
    if s < 3 or s % 2 == 0:
        raise InvalidArgument("the walk-regularity test is for odd s >= 3")
    if s > WALK_GUARD:
        raise GuardExceeded(f"walk length {s} over guard {WALK_GUARD}")
    degree = graph.degree
    nontrivial = dict(graph._spectrum)
    if nontrivial.get(degree, 0) < 1:
        raise InvalidArgument(f"the spectrum lacks the degree {degree}, the trivial character's eigenvalue")
    nontrivial[degree] -= 1  # the trivial character
    thetas = sorted((t for t, m in nontrivial.items() if m), reverse=True)
    if len(thetas) > 3 or len(thetas) == 3 and vandam_lhs(s, *thetas):
        return SwrgResult(False, s, None)
    # one nontrivial eigenvalue: K_{q^k} (or no edges), and the line also
    # runs through the degree, so gamma, the empty class's constant, is 0
    a, b = (thetas + [degree])[:2]
    beta = (a**s - b**s) // (a - b) if a != b else 0  # exact: a - b divides a^s - b^s
    alpha = a**s - beta * a
    gamma, rest = divmod(degree**s - alpha - beta * degree, graph.nvertices)
    if rest:
        raise SelfCheckFailed(f"walk constant gamma is not an integer: remainder {rest} mod q^k")
    return SwrgResult(True, s, (alpha + gamma, beta + gamma, gamma))


def tss_check(graph: CosetGraph) -> TssInstance:
    """Ordered triple-sum counts h = x + y + z over Omega^3 of the graph's
    connection set.

    These counts are the length-3 walk counts, so this is a view of
    `is_s_swrg(graph, 3)`, decided again on each call (a few integer
    operations): sigma0 is its adjacent constant and sigma1 its
    non-adjacent one, each None when its class is empty.
    """
    m = graph.degree
    walk = is_s_swrg(graph, 3)
    if not walk.is_swrg:
        return TssInstance(m, False, None, None)
    _, sigma0, sigma1 = walk.constants
    return TssInstance(m, True, sigma0 if m else None, sigma1 if m < graph.nvertices - 1 else None)

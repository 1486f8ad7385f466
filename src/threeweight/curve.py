"""Bounded integral-point searches on the plane curves cut out by the sum
of all degree-d monomials in three variables, plus the walk-regularity
eigenvalue identity that connects them.

The identity, over any commutative ring:

  (t2-t3) t1^s + (t3-t1) t2^s + (t1-t2) t3^s
      = (t1-t2)(t1-t3)(t2-t3) * h_{s-2}(t1,t2,t3)

where h_d is the complete homogeneous sum of the degree-d monomials.  For
pairwise distinct coordinates the curve h_d = 0 therefore carries exactly
the eigenvalue triples of (d+2)-walk-regular graphs, which is what the
search targets.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator

from .errors import GuardExceeded, InvalidArgument, SelfCheckFailed

SEARCH_BOUND_GUARD = 2000
# the search evaluates h_d, d steps each, about 0.4 * bound^2 times, and its
# self-check costs O(d^2) per point
DEGREE_GUARD = 25


class CurveQuery:
    """A search for the points of h_d = 0 with coordinates of absolute
    value at most `bound`; both are ints >= 1."""

    __slots__ = ("d", "bound")

    def __init__(self, d: int, bound: int):
        if not (isinstance(d, int) and isinstance(bound, int)):
            raise InvalidArgument(f"degree {d!r} and bound {bound!r} must be ints")
        if d < 1:
            raise InvalidArgument("degree must be >= 1")
        if bound < 1:
            raise InvalidArgument("bound must be >= 1")
        self.d = d
        self.bound = bound


def normalize_point(coords: tuple[int, int, int]) -> tuple[int, int, int]:
    """Coprime integer triple, sign-normalized (first nonzero > 0)."""
    if not (isinstance(coords, tuple) and len(coords) == 3):
        raise InvalidArgument(f"a projective point needs a triple, not {coords!r}")
    a, b, c = coords
    if not (isinstance(a, int) and isinstance(b, int) and isinstance(c, int)):
        raise InvalidArgument(f"a projective point needs int coordinates, not {coords!r}")
    if a == b == c == 0:
        raise InvalidArgument("(0:0:0) is not a projective point")
    g = gcd(gcd(abs(a), abs(b)), abs(c))
    a, b, c = a // g, b // g, c // g
    for lead in (a, b, c):
        if lead:
            if lead < 0:
                a, b, c = -a, -b, -c
            break
    return (a, b, c)


def vandam_lhs(s: int, t1: int, t2: int, t3: int) -> int:
    """(t2-t3) t1^s + (t3-t1) t2^s + (t1-t2) t3^s, exactly."""
    if not (isinstance(s, int) and isinstance(t1, int) and isinstance(t2, int) and isinstance(t3, int) and s >= 2):
        raise InvalidArgument(f"the identity needs an int s >= 2 and int t1, t2, t3, not {(s, t1, t2, t3)!r}")
    return (t2 - t3) * t1**s + (t3 - t1) * t2**s + (t1 - t2) * t3**s


def monomial_sum(d: int, t1: int, t2: int, t3: int) -> int:
    """Sum of all monomials t1^h t2^i t3^j with h + i + j = d, by direct
    summation (the search evaluates h_d by a recurrence and Horner's rule,
    keeping this a genuinely independent evaluation route)."""
    if not (isinstance(d, int) and isinstance(t1, int) and isinstance(t2, int) and isinstance(t3, int) and d >= 0):
        raise InvalidArgument(f"the monomial sum needs an int degree >= 0 and int t1, t2, t3, not {(d, t1, t2, t3)!r}")
    total = 0
    for h in range(d + 1):
        p1 = t1**h
        for i in range(d - h + 1):
            total += p1 * t2**i * t3 ** (d - h - i)
    return total


def search_integral_points(query: CurveQuery) -> list[tuple[int, int, int]]:
    """All projective points with integer coordinates of absolute value at
    most the bound on the curve h_d = 0, as sorted `normalize_point`
    triples.

    The symmetric group on the coordinates acts on the curve, so only the
    fundamental domain a >= 1, a >= b >= c, c <= min(b, 0) is searched (a
    zero needs a positive and a nonpositive coordinate) and the orbits are
    expanded afterwards.  For odd d, h_d(-p) = -h_d(p), and with (a, b, c)
    the domain also holds (-c, -b, -a), the same projective point, so the
    search keeps a >= -c as well.

    Complete homogeneous polynomials of even degree are positive definite in
    any number of variables (D. B. Hunter, "The positive-definiteness of the
    complete symmetric functions of even order", Math. Proc. Camb. Phil.
    Soc. 82 (1977)).  For even d the curve therefore has no real point, and
    nothing is searched.  For odd d and a != 0,

        d/db h_d(a, b, c) = h_(d-1)(a, b, b, c) > 0,
        d/dc h_d(a, b, c) = h_(d-1)(a, b, c, c) > 0,

    so f(c) = h_d(a, b, c) is strictly increasing, each pair (a, b) has at
    most one integral zero c, and the least c with f(c) >= 0 can only rise
    as b falls.  No pair with b > 0 holds a zero: h_d(x, y, z) =
    sum_j y^j h_(d-j)(x, z), and h_m(a, -a) is a^m for even m and 0 for odd
    m, so for odd d

        f(-a) = h_d(a, b, -a) = sum_(j odd <= d) b^j a^(d-j),

    which is > 0 for b > 0 (and 0 at b = 0).  There the least c >= -a with
    f(c) >= 0 is -a itself, where f is not zero.  Each row a is therefore
    one staircase over b = 0, -1, ..., -a: one pointer c, starting at -a
    (where the pairs b > 0 would leave it), moves up while f(c) < 0.  Once
    it passes b, no pair left in the row has a zero, and the row stops.  f
    is evaluated once per visited pair and once per pointer step, at most
    2a + 1 times in row a (about 0.38 B^2 times in all for d = 3 and
    B = bound), and f itself decides each candidate, so coincident
    coordinates need no special case.
    """
    if not isinstance(query, CurveQuery):
        raise InvalidArgument(f"the search needs a CurveQuery, not {query!r}")
    d, bound = query.d, query.bound
    if bound > SEARCH_BOUND_GUARD:
        raise GuardExceeded(f"bound {bound} over guard {SEARCH_BOUND_GUARD}")
    if d > DEGREE_GUARD:
        raise GuardExceeded(f"degree {d} over guard {DEGREE_GUARD}")
    if d % 2 == 0:
        return []
    raw = [
        (a, b, c)
        for a in range(1, bound + 1)
        for b, c, value in _staircase(d, a)
        if value == 0
    ]
    points = {
        normalize_point(perm)
        for a, b, c in raw
        for perm in ((a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a))
    }
    for p in points:
        if monomial_sum(d, *p) != 0:
            raise SelfCheckFailed(f"h_{d}{p} != 0 by direct summation")
        if len(set(p)) == 3 and vandam_lhs(d + 2, *p) != 0:
            raise SelfCheckFailed(f"eigenvalue identity fails at {p} for s = {d + 2}")
    return sorted(points)


def _staircase(d: int, a: int) -> Iterator[tuple[int, int, int]]:
    """(b, c, f(c)) for each pair (a, b) of row a that the staircase visits,
    b falling from 0, where c is the least in [-a, b] with f(c) =
    h_d(a, b, c) >= 0; the row ends at the first b without one.  The pairs
    b > 0 are left out: f(-a) > 0 there (see `search_integral_points`), so
    none holds a zero and none would move the pointer off -a.

    Only coprime pairs are visited.  With g = gcd(a, b) > 1, a = g a' and
    b = g b', h_d(a, b, g x) = g^d h_d(a', b', x), and h_d(a', b', x) is
    monic in x with integer coefficients.  So a zero c of f makes c / g a
    rational, hence integral, root of it (the rational-root theorem): the
    zero is g times the zero (a', b', c / g) of row a' < a, which lies in
    the same domain and is the same projective point.  The least c only
    rises as b falls, so a skipped pair moves no later pointer, and the
    visited pairs are the coprime pairs of a prefix 0, -1, ... of the row."""
    degrees = range(d)
    c = -a
    for b in range(0, -a - 1, -1):
        if gcd(a, b) > 1:
            continue
        if c > b:
            return
        while True:
            # f(c) = sum_j h_j(a, b) c^(d-j), by h_j(a,b) = a h_(j-1)(a,b) + b^j
            h = pb = value = 1
            for _ in degrees:
                pb *= b
                h = a * h + pb
                value = value * c + h
            if value >= 0 or c == b:
                break
            c += 1
        if value < 0:
            return
        yield b, c, value


def search_report(query: CurveQuery) -> dict:
    """CLI-facing JSON payload for a bounded curve search."""
    points = search_integral_points(query)
    return {
        "d": query.d,
        "bound": query.bound,
        "points": [list(p) for p in points],
    }

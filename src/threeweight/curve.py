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

import time
from dataclasses import dataclass
from math import gcd

from .errors import GuardExceeded, InvalidArgument

SEARCH_BOUND_GUARD = 500


@dataclass(frozen=True)
class CurveQuery:
    d: int
    bound: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise InvalidArgument("degree must be >= 1")
        if self.bound < 1:
            raise InvalidArgument("bound must be >= 1")


@dataclass(frozen=True)
class ProjectivePoint:
    """Coprime integer triple, sign-normalized (first nonzero > 0)."""

    a: int
    b: int
    c: int

    def coords(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def normalize_point(coords: tuple[int, int, int]) -> ProjectivePoint:
    a, b, c = coords
    if a == b == c == 0:
        raise ValueError("(0:0:0) is not a projective point")
    g = gcd(gcd(abs(a), abs(b)), abs(c))
    a, b, c = a // g, b // g, c // g
    for lead in (a, b, c):
        if lead:
            if lead < 0:
                a, b, c = -a, -b, -c
            break
    return ProjectivePoint(a, b, c)


def vandam_lhs(s: int, t1: int, t2: int, t3: int) -> int:
    """(t2-t3) t1^s + (t3-t1) t2^s + (t1-t2) t3^s, exactly."""
    if s < 2:
        raise ValueError("s must be >= 2")
    return (t2 - t3) * t1**s + (t3 - t1) * t2**s + (t1 - t2) * t3**s


def monomial_sum(d: int, t1: int, t2: int, t3: int) -> int:
    """Sum of all monomials t1^h t2^i t3^j with h + i + j = d, by direct
    summation (the closed form lives in the search loop, keeping this a
    genuinely independent evaluation route)."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    total = 0
    for h in range(d + 1):
        p1 = t1**h
        for i in range(d - h + 1):
            total += p1 * t2**i * t3 ** (d - h - i)
    return total


def identity_check(s: int, t1: int, t2: int, t3: int) -> bool:
    """Exact equality of the two sides of the eigenvalue identity."""
    lhs = vandam_lhs(s, t1, t2, t3)
    rhs = (t1 - t2) * (t1 - t3) * (t2 - t3) * monomial_sum(s - 2, t1, t2, t3)
    return lhs == rhs


def search_integral_points(query: CurveQuery) -> list[ProjectivePoint]:
    """All projective points with integer coordinates of absolute value at
    most the bound on the curve h_d = 0.

    The symmetric group on the coordinates acts on the curve, so the box is
    searched over the fundamental domain a >= b >= c only (with sign pruning:
    a zero requires a positive and a nonpositive coordinate) and the orbits
    are expanded afterwards.  Inside the domain, distinct-coordinate triples
    are tested through the closed telescoping numerator

        N(a,b,c) = (b-c) a^(d+2) + (c-a) b^(d+2) + (a-b) c^(d+2),

    which vanishes iff h_d does once the coordinates are pairwise distinct;
    coincident coordinates fall back to the direct monomial sum.
    """
    d, bound = query.d, query.bound
    if bound > SEARCH_BOUND_GUARD:
        raise GuardExceeded(f"bound {bound} over guard {SEARCH_BOUND_GUARD}")
    power = [v ** (d + 2) for v in range(-bound, bound + 1)]
    off = bound
    raw: set[tuple[int, int, int]] = set()
    for a in range(1, bound + 1):
        pa = power[a + off]
        for b in range(-bound, a + 1):
            pb = power[b + off]
            c_hi = min(b, 0)
            for c in range(-bound, c_hi + 1):
                if (b - c) * pa + (c - a) * pb + (a - b) * power[c + off] == 0:
                    if a == b or b == c:
                        if monomial_sum(d, a, b, c) != 0:
                            continue
                    raw.add((a, b, c))
    # coincident-coordinate lines need a direct pass (N vanishes identically
    # there); a zero of h_d needs strictly mixed signs, so a*c < 0
    for a in range(-bound, bound + 1):
        for c in range(-bound, bound + 1):
            if a * c < 0:
                if monomial_sum(d, a, a, c) == 0:
                    raw.add(tuple(sorted((a, a, c), reverse=True)))
                if monomial_sum(d, a, c, c) == 0:
                    raw.add(tuple(sorted((a, c, c), reverse=True)))
    points: set[ProjectivePoint] = set()
    for a, b, c in raw:
        for perm in (
            (a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a),
        ):
            points.add(normalize_point(perm))
    for p in points:
        assert monomial_sum(d, *p.coords()) == 0
        if len({p.a, p.b, p.c}) == 3:
            assert vandam_lhs(d + 2, *p.coords()) == 0
    return sorted(points, key=lambda p: p.coords())


def search_report(query: CurveQuery) -> dict:
    """CLI-facing JSON payload for a bounded curve search."""
    start = time.monotonic()
    points = search_integral_points(query)
    elapsed = time.monotonic() - start
    return {
        "d": query.d,
        "bound": query.bound,
        "points": [list(p.coords()) for p in points],
        "elapsed": round(elapsed, 3),
    }

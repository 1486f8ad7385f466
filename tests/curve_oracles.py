"""Independent second route for `threeweight.curve.search_integral_points`.

The library finds, for each pair (a, b) of the fundamental domain, the only
candidate c by integer bisection on h_d(a, b, .), and skips even degrees
outright.  The route below scans every cell of the same domain, tests
distinct coordinates through the telescoped numerator

    N(a,b,c) = (b-c) a^(d+2) + (c-a) b^(d+2) + (a-b) c^(d+2)

and the coincident-coordinate lines (where N vanishes identically) by the
direct monomial sum, for every degree, odd or even.
"""

from __future__ import annotations

from threeweight.curve import monomial_sum, normalize_point


def box_search(d: int, bound: int) -> list[tuple[int, int, int]]:
    """Normalized points of h_d = 0 in [-bound, bound]^3, by the O(bound^3)
    scan of a >= 1, a >= b >= c, c <= min(b, 0) and S3 orbit expansion."""
    power = [v ** (d + 2) for v in range(-bound, bound + 1)]
    off = bound
    raw: set[tuple[int, int, int]] = set()
    for a in range(1, bound + 1):
        pa = power[a + off]
        for b in range(-bound, a + 1):
            pb = power[b + off]
            for c in range(-bound, min(b, 0) + 1):
                if (b - c) * pa + (c - a) * pb + (a - b) * power[c + off] == 0:
                    if a == b or b == c:
                        if monomial_sum(d, a, b, c) != 0:
                            continue
                    raw.add((a, b, c))
    # a zero of h_d on a coincident-coordinate line needs a * c < 0
    for a in range(-bound, bound + 1):
        for c in range(-bound, bound + 1):
            if a * c < 0:
                if monomial_sum(d, a, a, c) == 0:
                    raw.add(tuple(sorted((a, a, c), reverse=True)))
                if monomial_sum(d, a, c, c) == 0:
                    raw.add(tuple(sorted((a, c, c), reverse=True)))
    points = set()
    for a, b, c in raw:
        for perm in (
            (a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a),
        ):
            points.add(normalize_point(perm).coords())
    return sorted(points)

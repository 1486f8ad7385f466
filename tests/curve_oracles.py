"""Independent second routes for `threeweight.curve.search_integral_points`.

The library walks each row a of the fundamental domain as one staircase:
b falls from 0 (no pair with b > 0 holds a zero), and one rising pointer c
stops at the least c with h_d(a, b, c) >= 0, one evaluation per pair and
per pointer step; even degrees are skipped outright.  `least_nonnegative`
finds the same candidate c for a single pair (a, b) by integer bisection,
independently of every other pair.
`box_search` scans every cell of the same domain, tests distinct
coordinates through the telescoped numerator

    N(a,b,c) = (b-c) a^(d+2) + (c-a) b^(d+2) + (a-b) c^(d+2)

and the coincident-coordinate lines (where N vanishes identically) by the
direct monomial sum, for every degree, odd or even.  `identity_check`
compares the two sides of the eigenvalue identity in the `curve` module
docstring exactly.
"""

from __future__ import annotations

from threeweight.curve import monomial_sum, normalize_point, vandam_lhs


def horner(coeffs: list[int], c: int) -> int:
    """The polynomial with these coefficients, highest degree first, at c."""
    value = 0
    for coef in coeffs:
        value = value * c + coef
    return value


def least_nonnegative(coeffs: list[int], lo: int, hi: int) -> tuple[int, int] | None:
    """(c, f(c)) for the least c in [lo, hi] with f(c) >= 0, or None when
    f(hi) < 0, by integer bisection.  f is the polynomial with these
    coefficients, highest degree first, and must be nondecreasing on
    [lo, hi]."""
    value = horner(coeffs, hi)
    if value < 0:
        return None
    low = horner(coeffs, lo)
    if low >= 0:
        return lo, low
    while hi - lo > 1:  # f(lo) < 0 <= f(hi) = value
        mid = (lo + hi) // 2
        mid_value = horner(coeffs, mid)
        if mid_value < 0:
            lo = mid
        else:
            hi, value = mid, mid_value
    return hi, value


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
            points.add(normalize_point(perm))
    return sorted(points)


def identity_check(s: int, t1: int, t2: int, t3: int) -> bool:
    """Exact equality of the two sides of the eigenvalue identity
    (t2-t3) t1^s + (t3-t1) t2^s + (t1-t2) t3^s
    = (t1-t2)(t1-t3)(t2-t3) h_(s-2)(t1, t2, t3)."""
    lhs = vandam_lhs(s, t1, t2, t3)
    rhs = (t1 - t2) * (t1 - t3) * (t2 - t3) * monomial_sum(s - 2, t1, t2, t3)
    return lhs == rhs

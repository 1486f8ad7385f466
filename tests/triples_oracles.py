"""Independent second route for `threeweight.triples`.

The library lists binary triples by 2-adic residue classes of m = n/2, the
class of each (u, v) pair and root, across a whole range of lengths.
`window_triples` is the per-length loop the feasibility kernel ran before:
for each w1 it walks the window of w2 in which A_1 and A_3 can be positive,
forms every triple there, and for q = 2 drops those whose cap on k from
2^(k-2) | w1 w2 w3 lies below the Hamming floor.  It is generic in q, so
over GF(3) it is also the reference of `triples.ternary_triples`.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator

from threeweight.feasibility import hamming_floor


def window_triples(q: int, n: int, midpoint: bool = True) -> Iterator[tuple[int, int, int]]:
    """The triples of length n inside the window of w2, in (w1, w2) order;
    for q = 2 only those that pass the cap of condition (iii) at the Hamming
    floor, and with midpoint=False none with w2 = n(q-1)/q."""
    s = q - 1
    if 3 * n * s % q:
        return
    ns = n * s
    target = 3 * ns // q
    skip = ns // q if not midpoint and ns % q == 0 else None
    k_lo = hamming_floor(q, n)
    for w1 in range(1, target // 3):
        x1 = ns - q * w1  # > 0, as 3 w1 < target
        # x_2 < 0 side: n(q-1) + x_1 x_2 > 0
        hi = min((target - w1 - 1) // 2, (ns + (ns - 1) // x1) // q)
        # x_2 >= 0 side: the largest m with (2m + x_1)^2 < x_1^2 + 4n(q-1)
        m = (isqrt(x1 * x1 + 4 * ns - 1) - x1) // 2
        lo = max(w1 + 1, target - w1 - n, (ns - m + s) // q)
        for w2 in range(lo, hi + 1):
            if w2 == skip:
                continue
            w3 = target - w1 - w2
            if q == 2:
                prod = w1 * w2 * w3
                if (prod & -prod).bit_length() + 1 < k_lo:
                    continue  # condition (iii) fails already at the floor
            yield w1, w2, w3

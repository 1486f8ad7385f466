"""The weight triples the feasibility kernel decides, length by length.

Binary.  For n = 2m write the weights by their offsets from m,

    (w1, w2, w3) = (m - u, m - v, m + u + v),   u >= 1,  -u/2 < v < u,

so that w1 < w2 < w3 and w1 + w2 + w3 = 3m; v = 0 puts w2 at the midpoint.
With x_w = K_1(w) = n - 2w these are x = (2u, 2v, -2(u + v)), and the
kernel's window (A_1 and A_3 can be positive at some k only where
n + x_2 x_3 > 0 and n + x_1 x_2 > 0) reads m > 2v(u + v) and m > -2uv.
Together with w1 >= 1 and w3 <= n, a pair (u, v) has a triple at every
m >= m0 = max(2v(u + v), -2uv, u) + 1 and at no smaller m.

Condition (iii) 2^(k-2) | w1 w2 w3 caps k at v2(w1 w2 w3) + 2, and the
Hamming floor of length 2m is bitlen(2m) = bitlen(m) + 1, so a triple
reaches some k only when v2((m - u)(m - v)(m + u + v)) >= need, where
need = bitlen(m) - 1 is fixed on each dyadic block 2^b <= m < 2^(b+1).
The product is a cubic in m with the roots r = (u, v, -u - v); their
differences u - v, 2u + v and u + 2v are positive, and no root is m, as
every weight is at least 1.  Let t_i = v2(m - r_i) and let j be a root of
largest t, and e_ji = v2(r_j - r_i).  For i != j, t_j = e_ji would give
t_i > t_j, so t_i = min(t_j, e_ji), and the product's valuation is

    f_j(t_j) = t_j + min(t_j, e) + min(t_j, e'),   e <= e' the two e_ji,

which grows with t_j.  As t_i >= min(t_j, e_ji) for every m, any m with
t_j >= a has valuation at least f_j(a).  The m that pass are therefore
exactly those of the classes m = r_j (mod 2^a_j), j = 1, 2, 3, with a_j
the least a with f_j(a) >= need: f_j(a) is 3a up to e, 2a + e up to e' and
a + e + e' beyond, so

    a_j = ceil(need / 3)          if 3e >= need,
          ceil((need - e) / 2)    else if e + 2e' >= need,
          need - e - e'           otherwise.

binary_triples walks the blocks in turn, each (capped at m_max) in one
pass: it lists the pairs with m0 in or before the block once and, per pair
and root, appends the pair to the bucket of every m of the root's class at
or past both m0 and the block's start.  A bucket holds one reference per
hit to the pair's one tuple (u, v), at most three per pair; at each m the
pair's triple is listed once (two roots can share an m) and the bucket is
freed.  Peak memory is one block's buckets, which the guards bound: the
scan's last block, 4096 <= n <= 8190, holds 209,605 triples.

Ternary.  Condition (iii) gives no 3-adic cap, so ternary_triples walks
w1 and, for each, the window of w2 in which A_1 and A_3 can be positive.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator

from .errors import InvalidArgument


def _pairs(end: int, midpoint: bool) -> Iterator[tuple[int, int, int]]:
    """(u, v, m0) for every pair whose window opens at m0 <= end."""
    if midpoint:
        for u in range(1, end):
            yield u, 0, u + 1
    v = 1
    while 2 * v * (2 * v + 1) < end:  # u = v + 1 is the smallest u
        for u in range(v + 1, (end - 1) // (2 * v) - v + 1):
            yield u, v, 2 * v * (u + v) + 1
        v += 1
    w = 1  # v = -w
    while 2 * w * (2 * w + 1) < end:  # u = 2w + 1 is the smallest u
        for u in range(2 * w + 1, (end - 1) // (2 * w) + 1):
            yield u, -w, 2 * u * w + 1
        w += 1


def binary_triples(
    n_min: int, n_max: int, midpoint: bool = True
) -> Iterator[tuple[int, list[tuple[int, int, int]]]]:
    """(n, triples) for each even n in [n_min, n_max], n >= 2, in turn: the
    binary triples of length n inside the kernel's window of w2 that pass
    the cap of condition (iii) at the Hamming floor, sorted by (w1, w2).
    With midpoint=False the triples with w2 = n/2 are left out."""
    if not (isinstance(n_min, int) and isinstance(n_max, int)):
        raise InvalidArgument(f"binary triples need int bounds, not {n_min!r} and {n_max!r}")
    lo, m_max = max(n_min + 1, 2) // 2, n_max // 2
    while lo <= m_max:
        need = lo.bit_length() - 1
        end = min((2 << need) - 1, m_max)
        third = -(-need // 3)
        found = [[] for _ in range(lo, end + 1)]  # one bucket of pairs per m
        for u, v, m0 in _pairs(end, midpoint):
            start = max(lo, m0)
            pair = (u, v)
            d12, d13, d23 = u - v, 2 * u + v, u + 2 * v  # the roots' differences, all > 0
            e12 = (d12 & -d12).bit_length() - 1
            e13 = (d13 & -d13).bit_length() - 1
            e23 = (d23 & -d23).bit_length() - 1
            for root, e, e2 in ((u, e12, e13), (v, e12, e23), (-u - v, e13, e23)):
                if e > e2:
                    e, e2 = e2, e
                # a_j, the least a with a + min(a, e) + min(a, e2) >= need
                if 3 * e >= need:
                    a = third
                elif e + 2 * e2 >= need:
                    a = (need - e + 1) // 2
                else:
                    a = need - e - e2
                for m in range(start + (root - start) % (1 << a), end + 1, 1 << a):
                    found[m - lo].append(pair)
        for m in range(lo, end + 1):
            # freed once listed, not held to the block's end
            pairs, found[m - lo] = found[m - lo], None
            yield 2 * m, sorted({(m - u, m - v, m + u + v) for u, v in pairs})
        lo = end + 1


def ternary_triples(n: int) -> Iterator[tuple[int, int, int]]:
    """The ternary triples of length n, w1 ascending and then w2, inside the
    window of w2 outside which A_1 or A_3 is never positive (derived in
    feasibility.length_candidates)."""
    if not isinstance(n, int):
        raise InvalidArgument(f"ternary triples need an int length, not n = {n!r}")
    ns = 2 * n  # n(q - 1), and also the weight sum 3n(q - 1)/q
    for w1 in range(1, ns // 3):
        x1 = ns - 3 * w1  # > 0, as 3 w1 < 2n
        # x_2 < 0 side: n(q-1) + x_1 x_2 > 0
        hi = min((ns - w1 - 1) // 2, (ns + (ns - 1) // x1) // 3)
        # x_2 >= 0 side: n(q-1) + x_2 x_3 > 0, i.e. x_2 (x_1 + x_2) < n(q-1)
        # the largest such x_2 is t, the largest t with (2t + x_1)^2 < x_1^2 + 4n(q-1)
        t = (isqrt(x1 * x1 + 4 * ns - 1) - x1) // 2
        for w2 in range(max(w1 + 1, n - w1, (ns - t + 2) // 3), hi + 1):
            yield w1, w2, ns - w1 - w2

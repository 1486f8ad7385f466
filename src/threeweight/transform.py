"""MacWilliams transform machinery: Krawtchouk polynomials, dual weight
distributions, and the frequencies forced on three-weight codes by the
first power moments.

The frequencies have one formula, the Lagrange form derived in
solve_three_weight_general: A_j (w_j - w_a)(w_j - w_b) = q^(k-2) (n(q-1) +
x_a x_b) - w_a w_b with x_w = K_1(w).  three_weight_solve views it at q = 2
and adds B_3, and the per-length kernel feasibility.length_candidates
inlines it.  The binary closed form, the Cramer solution of the moment
system and the per-case integer route the kernel is tested against are
test oracles (tests/transform_oracles.py).

krawtchouk_column steps the three-term Krawtchouk recurrence of one weight,
the only place that does and the one route to K_i.  dual_numerators sums
one column per weight into q^k B_i = sum_j K_i(j) A_j, over GF(2) only to
n // 2 and the rest by the reflection K_{n-i}(x) = (-1)^x K_i(x): the route
of verify, which reads one distribution once.  dual_sequence_exact, the
feasibility kernel's dual test, computes a few lanes by three facts derived
in its docstring: the binomial moments q^(k-nu) | T_nu decide integrality
past them, Krawtchouk orthogonality and Cauchy-Schwarz make q^k B_i positive
on one interval of middle lanes, and its own short columns, never
dual_numerators, give the rest (the high end over GF(2) by the reflection).

All arithmetic is exact (integers and fractions).  Integrality of a dual
distribution is always tested, never assumed.  `ThreeWeightSolution` is a
`NamedTuple`: immutable, iterable, and equal to the plain tuple of its
fields.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .errors import InvalidArgument, SelfCheckFailed


def dual_numerators(counts: dict[int, int], n: int, q: int) -> list[int]:
    """[q^k B_0, ..., q^k B_n] with q^k B_i = sum_w K_i(w) A_w, from primal
    counts {weight: A_w}, one krawtchouk_column per nonzero A_w.

    Over GF(2) K_{n-i}(x) = (-1)^x K_i(x), so the columns stop at
    i = n // 2 and q^k B_(n-i) = sum_w (-1)^w A_w K_i(w): the columns of
    even and of odd weights are summed apart, and the upper half is their
    difference.
    """
    if not (isinstance(n, int) and isinstance(q, int)) or n < 0 or q not in (2, 3):
        raise InvalidArgument(f"the dual numerators need an int length n >= 0, q in {{2, 3}}, not n = {n!r}, q = {q!r}")
    half = n // 2 if q == 2 else n
    sums = [[0] * (half + 1), [0] * (half + 1)]  # even and odd w over GF(2)
    for w, a in counts.items():
        if not (isinstance(w, int) and 0 <= w <= n):
            raise InvalidArgument(f"the dual numerators need int weights in 0..{n}, not {w!r}")
        if a:
            parity = w & 1 if q == 2 else 0
            sums[parity] = [s + a * v for s, v in zip(sums[parity], krawtchouk_column(w, n, q, half))]
    even, odd = sums
    mirror = [e - o for e, o in zip(even[: n - half], odd)]
    return [e + o for e, o in zip(even, odd)] + mirror[::-1]


def krawtchouk_column(x: int, n: int, q: int, imax: int) -> list[int]:
    """[K_0(x), ..., K_imax(x)], zero past i = n, by the three-term recurrence

        (i+1) K_{i+1}(x) = ((q-1)(n-i) + i - qx) K_i(x) - (q-1)(n-i+1) K_{i-1}(x),

    with every value it divides out checked to be an integer.  It is the one
    route to K_i: dual_numerators sums these columns, dual_sequence_exact
    reads short ones, and the feasibility kernel reads K_3 from them."""
    if not (isinstance(x, int) and isinstance(n, int) and isinstance(q, int) and isinstance(imax, int)):
        raise InvalidArgument(f"a Krawtchouk column needs int x, n, q and imax, not {(x, n, q, imax)!r}")
    if n < 0:
        raise InvalidArgument(f"no Krawtchouk column for a negative length n = {n}")
    head, tail = (q - 1) * n - q * x, (q - 1) * (n + 1)  # its coefficients at i = 0
    col, prev, cur = [1], 0, 1
    for i in range(1, imax + 1):
        nxt, rem = divmod(head * cur - tail * prev, i)
        if rem:
            raise SelfCheckFailed(f"K_{i}({x}) is not an integer for n={n}, q={q}")
        col.append(nxt)
        prev, cur, head, tail = cur, nxt, head + 2 - q, tail + 1 - q
    return col


def dual_sequence_exact(
    q: int, n: int, k: int, weights: tuple[int, int, int], freqs: tuple[int, int, int]
) -> tuple[int, int, int, int] | None:
    """(B_0, B_1, B_2, B_3) of the counts {0: 1, w_j: A_j} of length n when
    all of B_0..B_n are nonnegative integers, else None.  With
    v_i = K_i(0) = C(n, i) (q-1)^i, three facts decide the signs and
    integrality of q^k B_i = v_i + sum_j A_j K_i(w_j) from a few lanes.

    Integrality.  The binomial moments (MacWilliams and Sloane, Ch. 5)

        T_nu = C(n, nu) + sum_j A_j C(n - w_j, nu) = q^(k-nu) sum_(i <= nu) C(n-i, nu-i) B_i

    are a unitriangular integer system in B, and T_nu / q^(k-nu) is an
    integer for every nu >= k.  So every B_i is an integer exactly when the
    lanes computed exactly (B_0..B_3 among them) are multiples of q^k and
    q^(k-nu) | T_nu for each nu < k past them.

    Signs in the middle.  Krawtchouk orthogonality, sum_x v_x K_i(x)^2 =
    q^n v_i, bounds the three weights' share of that sum: sum_j v_(w_j)
    K_i(w_j)^2 <= q^n v_i.  With it, Cauchy-Schwarz over the three weights
    gives (sum_j A_j K_i(w_j))^2 <= (sum_j A_j^2 / v_(w_j)) (sum_j v_(w_j)
    K_i(w_j)^2) <= v_i N / D, with D = prod_j v_(w_j) and N = q^n sum_j
    A_j^2 D / v_(w_j).  So q^k B_i > 0 wherever v_i > floor(N / D), and as
    v is log-concave in i these lanes form one interval, from the first
    such lane lo.

    Exact lanes.  The lanes below top = max(lo, 4) come from one short
    krawtchouk_column per weight and K_i(0) = v_i, the walk carried on to
    lane top - 1.  Over GF(2) v_(n-i) = v_i, so the walk stops at n // 2 and
    the lanes past n - lo, all of them if the interval is empty, are
    q^k B_(n-i) = sum_w (-1)^w A_w K_i(w) for i < lo, by K_(n-i)(x) =
    (-1)^x K_i(x).  Over GF(3) the interval reaches i = n only when v_n = 2^n
    is past the bound; otherwise lo = n + 1 and every lane is exact.
    """
    (w1, w2, w3), (a1, a2, a3) = weights, freqs
    if not (isinstance(q, int) and isinstance(n, int) and isinstance(k, int)) or not (
        q in (2, 3) and k >= 0 and 0 < w1 < w2 < w3 <= n
    ):
        raise InvalidArgument(
            f"the dual test needs q in {{2, 3}}, int n and k >= 0, 0 < w1 < w2 < w3 <= n: {(q, n, k, weights)!r}"
        )
    size, s = q**k, q - 1
    u1, u2, u3 = comb(n, w1) * s**w1, comb(n, w2) * s**w2, comb(n, w3) * s**w3
    bound = q**n * (a1 * a1 * u2 * u3 + a2 * a2 * u1 * u3 + a3 * a3 * u1 * u2) // (u1 * u2 * u3)
    lo, v, end = 0, [1], n // 2 if q == 2 else n  # v_0..v_lo; over GF(2) the mirror covers the rest
    while lo <= end and v[lo] <= bound:
        v.append(v[lo] * (n - lo) * s // (lo + 1))
        lo += 1
    if q == 3 and 2**n <= bound:
        lo = n + 1  # the interval cannot reach i = n: every lane exactly
    top = max(lo, 4)  # the lanes computed exactly
    for i in range(len(v) - 1, top - 1):  # K_i(0) = v_i, on to the last exact lane
        v.append(v[i] * (n - i) * s // (i + 1))
    k1, k2, k3 = (krawtchouk_column(w, n, q, top - 1) for w in weights)
    lanes = [c0 + a1 * c1 + a2 * c2 + a3 * c3 for c0, c1, c2, c3 in zip(v, k1, k2, k3)]
    b1, b2, b3 = (-a if w & 1 else a for w, a in zip(weights, freqs))  # q^k B_(n-i) over GF(2)
    mirror = [c0 + b1 * c1 + b2 * c2 + b3 * c3 for c0, c1, c2, c3 in zip(v[:lo], k1, k2, k3)] if q == 2 else []
    if min(lanes[:lo] + mirror, default=0) < 0 or any(x % size for x in lanes[:top]):
        return None
    c0, c1, c2, c3 = comb(n, top), comb(n - w1, top), comb(n - w2, top), comb(n - w3, top)
    for nu in range(top, k):  # the moments past the exact lanes, their binomials stepped in nu
        if (c0 + a1 * c1 + a2 * c2 + a3 * c3) % q ** (k - nu):
            return None
        d = nu + 1
        c0, c1, c2, c3 = c0 * (n - nu) // d, c1 * (n - w1 - nu) // d, c2 * (n - w2 - nu) // d, c3 * (n - w3 - nu) // d
    return tuple(x // size for x in lanes[:4])


def dual_distribution(counts: dict[int, int], n: int, q: int, k: int) -> list[Fraction]:
    """Dual weight distribution B_0..B_n from primal counts {weight: A_w}.

    B_i = (1/q^k) * sum_j K_i(j) A_j, returned as exact reduced fractions.
    Callers decide what integrality or nonnegativity means for them.
    """
    if not isinstance(k, int) or k < 0:
        raise InvalidArgument(f"the dual distribution needs an int k >= 0, not {k!r}")
    size = q**k
    return [Fraction(v, size) for v in dual_numerators(counts, n, q)]


class ThreeWeightSolution(NamedTuple):
    """Frequencies forced on a putative projective three-weight code.

    The values are exact rationals; the tuple is arithmetically realizable
    only when the frequencies and b3 are nonnegative integers.
    """

    q: int
    n: int
    k: int
    weights: tuple[int, int, int]
    frequencies: tuple[Fraction, Fraction, Fraction]
    b3: Fraction
    y: int  # 2^(k-2); binary-only convenience


def three_weight_solve(n: int, k: int, w1: int, w2: int, w3: int) -> ThreeWeightSolution:
    """The frequencies and B_3 forced on a binary projective [n,k] code with
    nonzero weights w1 < w2 < w3: the frequencies of
    solve_three_weight_general at q = 2, and 2^k B_3 = K_3(0) +
    sum_j A_j K_3(w_j) with K_3 read from krawtchouk_column, as the
    feasibility kernel reads it.
    """
    if not all(isinstance(v, int) for v in (n, k, w1, w2, w3)):
        raise InvalidArgument(f"the moments need an int n, k and weights, not {(n, k, w1, w2, w3)!r}")
    if len({w1, w2, w3}) != 3:
        raise InvalidArgument(f"weights must be distinct, got {(w1, w2, w3)}")
    if not (1 <= w1 < w2 < w3 <= n):
        raise InvalidArgument(f"need 1 <= w1 < w2 < w3 <= n, got {(w1, w2, w3)} with n={n}")
    if k < 2:
        raise InvalidArgument("dimension must be at least 2 for a three-weight code")
    freqs = solve_three_weight_general(n, k, 2, w1, w2, w3)
    k3 = [krawtchouk_column(w, n, 2, 3)[3] for w in (0, w1, w2, w3)]
    b3 = Fraction(k3[0] + sum(a * v for a, v in zip(freqs, k3[1:])), 1 << k)
    return ThreeWeightSolution(2, n, k, (w1, w2, w3), freqs, b3, 1 << (k - 2))


def solve_three_weight_general(
    n: int, k: int, q: int, w1: int, w2: int, w3: int
) -> tuple[Fraction, Fraction, Fraction]:
    """The frequencies A_j of the weights w_j forced by sum A = q^k - 1 and
    B_1 = B_2 = 0, as exact rationals, for ints n, k >= 0 and q >= 2 and
    three distinct int weights (that q is a prime power is not checked).

    With x_w = K_1(w) = n(q-1) - qw and w_a, w_b the other two weights,
    A_j d_j = q^(k-2) p_j - c_j with p_j = n(q-1) + x_a x_b, c_j = w_a w_b
    and d_j = (w_j - w_a)(w_j - w_b): B_1 = B_2 = 0 make the first two
    moments of the weight W of a codeword those of a uniform word of F_q^n,
    so sum (W - w_a)(W - w_b) over the q^k codewords is
    q^(k-2) (n(q-1) + x_a x_b), and only the zero word and the words of
    weight w_j contribute to it.  So A_j = (q^k p_j - q^2 c_j) / (q^2 d_j)
    for every k >= 0.
    """
    if not all(isinstance(v, int) for v in (n, k, q, w1, w2, w3)) or n < 0 or k < 0 or q < 2:
        raise InvalidArgument(f"the frequencies need ints n, k >= 0, q >= 2 and weights, not {(n, k, q, w1, w2, w3)!r}")
    if w1 == w2 or w1 == w3 or w2 == w3:
        raise InvalidArgument(f"weights must be distinct, got {(w1, w2, w3)}")
    ns, top, qq = n * (q - 1), q**k, q * q
    x1, x2, x3 = ns - q * w1, ns - q * w2, ns - q * w3
    return (
        Fraction(top * (ns + x2 * x3) - qq * w2 * w3, qq * (w1 - w2) * (w1 - w3)),
        Fraction(top * (ns + x1 * x3) - qq * w1 * w3, qq * (w2 - w1) * (w2 - w3)),
        Fraction(top * (ns + x1 * x2) - qq * w1 * w2, qq * (w3 - w1) * (w3 - w2)),
    )

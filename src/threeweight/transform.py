"""MacWilliams transform machinery: Krawtchouk polynomials, dual weight
distributions, and the frequencies forced on three-weight codes by the
first power moments.

The frequencies have one formula, the Lagrange form of lagrange_terms:
A_j (w_j - w_a)(w_j - w_b) = q^(k-2) (n(q-1) + x_a x_b) - w_a w_b with
x_w = K_1(w).  forced_frequencies applies it to one (q, n, k, weights) and
rejects on the first nonzero remainder, the per-case route of
feasibility.evaluate_candidate; the per-length kernel
feasibility.length_candidates inlines the same arithmetic and is tested
against that route.  solve_three_weight_general gives the same values as
fractions.  The binary closed form three_weight_solve is kept as a rational
reference.

krawtchouk_column steps the three-term Krawtchouk recurrence of one weight,
the only place that does and the one route to K_i.  dual_numerators sums
one column per weight into q^k B_i = sum_j K_i(j) A_j, over GF(2) only to
n // 2 and the rest by the reflection K_{n-i}(x) = (-1)^x K_i(x): the route
of verify, which reads one distribution once.  The feasibility kernel
reuses columns across the cases of a length, so DualLanes packs each column
once into one integer, and dual_sequence_exact tests a whole distribution
on those integers with one quotient test for both fields.

All arithmetic is exact (integers and fractions).  Integrality of a dual
distribution is always tested, never assumed.  `ThreeWeightSolution` is a
`NamedTuple`: immutable, iterable, and equal to the plain tuple of its
fields.
"""

from __future__ import annotations

from fractions import Fraction
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
    half = n // 2 if q == 2 else n
    sums = [[0] * (half + 1), [0] * (half + 1)]  # even and odd w over GF(2)
    for w, a in counts.items():
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
    route to K_i: dual_numerators sums these columns, DualLanes packs them,
    and the feasibility kernel reads K_3 from them."""
    if not (isinstance(x, int) and isinstance(n, int)):
        raise InvalidArgument(f"a Krawtchouk column needs an int point and length, not x = {x!r}, n = {n!r}")
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


class DualLanes:
    """The Krawtchouk columns of one length n, each packed once as
    P_w = sum_i K_i(w) 2^(L i) over the lanes i <= n, or i <= n // 2 over
    GF(2) (K_{n-i}(x) = (-1)^x K_i(x)), for the cases with k <= k_cap.

    k_cap is n for q = 3, as condition (iii) asks.  For q = 2 it is
    3 bitlen(n) - 2: condition (iii) 2^(k-2) | w1 w2 w3 gives
    k <= v2(w1 w2 w3) + 2, and of three distinct weights below 2^bitlen(n)
    at most one is a multiple of 2^(bitlen(n)-1), so v2(w1 w2 w3) <=
    3 bitlen(n) - 5 and k <= 3 bitlen(n) - 3.  As |K_i(w)| <= q^(n-w) 2^w
    <= q^n, each lane of sum_w A_w P_w with A_w >= 0 and sum_w A_w <= q^k
    lies in (-2^(L-2), 2^(L-2)) when 2^(L-2) > q^(n+k_cap).  quotient_mask,
    the bits t..L-1 of every lane with t = L - 1 - bitlen(q^k_cap), serves
    every k <= k_cap: a lane Q_i < 2^t gives q^k Q_i < 2^(L-1), so no lane
    of q^k Q carries, and a case with every B_i a nonnegative integer has
    B_i <= sum_i B_i = q^(n-k) <= q^n < 2^(L-2) / q^k_cap <= 2^t."""

    def __init__(self, q: int, n: int):
        if not (isinstance(q, int) and isinstance(n, int)) or n < 1:
            raise InvalidArgument(f"Krawtchouk lanes need an int q and a length n >= 1, not q = {q!r}, n = {n!r}")
        self.q, self.n = q, n
        self.k_cap = 3 * n.bit_length() - 2 if q == 2 else n
        self.count = n // 2 + 1 if q == 2 else n + 1
        self.width = ((q ** (n + self.k_cap)).bit_length() + 9) // 8 * 8
        self._columns: dict[int, int] = {}
        lane = (1 << self.width) - (1 << (self.width - 1 - (q**self.k_cap).bit_length()))
        self.quotient_mask = int.from_bytes(lane.to_bytes(self.width // 8, "little") * self.count, "little")

    def column(self, w: int) -> int:
        """P_w: each lane in L-bit two's complement, less what the lane below borrows."""
        if w not in self._columns:
            size, borrow, chunks = self.width // 8, 0, []
            for v in krawtchouk_column(w, self.n, self.q, self.count - 1):
                v -= borrow
                chunks.append(v.to_bytes(size, "little", signed=True))
                borrow = v < 0
            packed = int.from_bytes(b"".join(chunks), "little")
            self._columns[w] = packed - (1 << self.width * self.count) if borrow else packed
        return self._columns[w]


def dual_sequence_exact(
    lanes: DualLanes, k: int, weights: tuple[int, int, int], freqs: tuple[int, int, int]
) -> tuple[int, int, int, int] | None:
    """(B_0, B_1, B_2, B_3) of a case of the length of lanes when all of
    B_0..B_n are nonnegative integers, else None.

    N = P_0 + sum_j A_j P_j = q^k Q + r (0 <= r < q^k) holds q^k B_i in lane
    i.  Every B_i is a nonnegative integer exactly when r = 0 and every lane
    of Q is below 2^t, t = L - 1 - bitlen(q^k_cap) (lanes.quotient_mask; a
    negative Q sets a top bit): then the lanes of q^k Q are below 2^(L-1),
    so they are its digits, while
    a negative q^k B_i borrows from the lane above and leaves a digit of at
    least 2^L - 2^(L-2) - 1.  Over GF(2), when some weight with A_j > 0 is
    odd, the mirror P_0 + sum_j (-1)^(w_j) A_j P_j, with q^k B_(n-i) in lane
    i, meets the same test.  A k past lanes.k_cap, or frequencies that are
    negative or sum past q^k - 1, raise.
    """
    q, n, width = lanes.q, lanes.n, lanes.width
    size, first = q**k, (1 << 4 * width) - 1  # lanes 0..3
    if k > lanes.k_cap or min(freqs) < 0 or sum(freqs) >= size:
        raise SelfCheckFailed(
            f"lanes of width {width} for q={q}, n={n}, k <= {lanes.k_cap} cannot hold k={k}, frequencies {freqs}"
        )
    even, odd = lanes.column(0), 0  # N = even + odd, split by the parity of w_j over GF(2)
    for w, a in zip(weights, freqs):
        if q == 2 and w & 1:
            odd += a * lanes.column(w)
        else:
            even += a * lanes.column(w)
    heads = []
    for total in (even + odd, even - odd) if odd else (even,):
        quotient, rem = divmod(total, size)
        if rem or quotient & lanes.quotient_mask:
            return None
        heads.append(quotient & first)
    low, mirror, lane = heads[0], heads[-1], (1 << width) - 1
    # over GF(2) with n < 6, B_3 lies past the lanes of low, in lane n - 3 of mirror
    return tuple((low >> width * i if i < lanes.count else mirror >> width * (n - i)) & lane for i in range(4))


def dual_distribution(counts: dict[int, int], n: int, q: int, k: int) -> list[Fraction]:
    """Dual weight distribution B_0..B_n from primal counts {weight: A_w}.

    B_i = (1/q^k) * sum_j K_i(j) A_j, returned as exact reduced fractions.
    Callers decide what integrality or nonnegativity means for them.
    """
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

    def is_integral(self) -> bool:
        return all(f.denominator == 1 for f in self.frequencies) and self.b3.denominator == 1

    def counts(self) -> dict[int, int]:
        if not self.is_integral():
            raise InvalidArgument("frequencies are not integral")
        d = {0: 1}
        for w, f in zip(self.weights, self.frequencies):
            d[w] = int(f)
        return d


def three_weight_solve(n: int, k: int, w1: int, w2: int, w3: int) -> ThreeWeightSolution:
    """Solve the first power moments of a binary projective [n,k] code with
    nonzero weights w1 < w2 < w3 for the frequencies and for B_3.

    When the frequencies come out as nonnegative integers the result is
    cross-checked against the Krawtchouk transform, its columns stepped only
    to K_3 (B_1 = B_2 = 0 and the same B_3 must reappear).
    """
    if not all(isinstance(v, int) for v in (n, k, w1, w2, w3)):
        raise InvalidArgument(f"the moments need an int n, k and weights, not {(n, k, w1, w2, w3)!r}")
    if len({w1, w2, w3}) != 3:
        raise InvalidArgument(f"weights must be distinct, got {(w1, w2, w3)}")
    if not (1 <= w1 < w2 < w3 <= n):
        raise InvalidArgument(f"need 1 <= w1 < w2 < w3 <= n, got {(w1, w2, w3)} with n={n}")
    if k < 2:
        raise InvalidArgument("dimension must be at least 2 for a three-weight code")
    y = 1 << (k - 2)
    a1 = Fraction(
        y * (n * n - 2 * n * w2 - 2 * n * w3 + 4 * w2 * w3 + n) - w2 * w3,
        (w2 - w1) * (w3 - w1),
    )
    a2 = Fraction(
        y * (n * n - 2 * n * w1 - 2 * n * w3 + 4 * w1 * w3 + n) - w1 * w3,
        (w2 - w3) * (w2 - w1),
    )
    a3 = Fraction(
        y * (n * n - 2 * n * w1 - 2 * n * w2 + 4 * w1 * w2 + n) - w1 * w2,
        (w3 - w1) * (w3 - w2),
    )
    prod = w1 * w2 * w3
    b3_times_3 = (
        Fraction(n * n * (n + 3), 2)
        - (w1 + w2 + w3) * n * (n + 1)
        + 2 * (w1 * w2 + w1 * w3 + w2 * w3) * n
        - 4 * prod
        + Fraction(4 * prod, 1 << k)
    )
    b3 = b3_times_3 / 3
    sol = ThreeWeightSolution(2, n, k, (w1, w2, w3), (a1, a2, a3), b3, y)
    if sol.is_integral() and all(f >= 0 for f in sol.frequencies):
        columns = [(a, krawtchouk_column(w, n, 2, 3)) for w, a in sol.counts().items()]
        b = [Fraction(sum(a * col[i] for a, col in columns), 1 << k) for i in range(4)]
        if b[0] != 1 or b[1] != 0 or b[2] != 0 or b[3] != b3:
            raise SelfCheckFailed(
                f"MacWilliams transform disagrees with the closed form for "
                f"n={n}, k={k}, weights={(w1, w2, w3)}: B_0..B_3 = {b[:4]}, B_3 = {b3}"
            )
    return sol


def lagrange_terms(
    q: int, n: int, weights: tuple[int, int, int]
) -> tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]:
    """(p_j, c_j, d_j) per weight, with A_j d_j = q^(k-2) p_j - c_j for the
    frequencies forced by sum A = q^k - 1 and B_1 = B_2 = 0.

    With x_w = K_1(w) = n(q-1) - qw and w_a, w_b the other two weights,
    p_j = n(q-1) + x_a x_b, c_j = w_a w_b and d_j = (w_j - w_a)(w_j - w_b):
    B_1 = B_2 = 0 make the first two moments of the weight W of a codeword
    those of a uniform word of F_q^n, so sum (W - w_a)(W - w_b) over the q^k
    codewords is q^(k-2) (n(q-1) + x_a x_b), and only the zero word and the
    words of weight w_j contribute to it.  Nothing here depends on k.
    """
    w1, w2, w3 = weights
    if w1 == w2 or w1 == w3 or w2 == w3:
        raise InvalidArgument(f"weights must be distinct, got {weights}")
    ns = n * (q - 1)
    x1, x2, x3 = ns - q * w1, ns - q * w2, ns - q * w3
    return (
        (ns + x2 * x3, w2 * w3, (w1 - w2) * (w1 - w3)),
        (ns + x1 * x3, w1 * w3, (w2 - w1) * (w2 - w3)),
        (ns + x1 * x2, w1 * w2, (w3 - w1) * (w3 - w2)),
    )


def forced_frequencies(
    q: int, n: int, k: int, weights: tuple[int, int, int]
) -> tuple[int, int, int] | None:
    """The frequencies (A_w1, A_w2, A_w3) forced by sum A = q^k - 1 and
    B_1 = B_2 = 0, or None as soon as one is not a positive integer.

    A_j = (q^k p_j - q^2 c_j) / (q^2 d_j) over lagrange_terms, exact for
    every k >= 0."""
    top, qq = q**k, q * q
    out = []
    for p, c, d in lagrange_terms(q, n, weights):
        a, rem = divmod(top * p - qq * c, qq * d)
        if rem or a <= 0:
            return None
        out.append(a)
    return tuple(out)


def solve_three_weight_general(
    n: int, k: int, q: int, w1: int, w2: int, w3: int
) -> tuple[Fraction, Fraction, Fraction]:
    """Frequencies forced by B_1 = B_2 = 0 for any prime power q, as exact
    rationals: forced_frequencies without the integrality test."""
    top, qq = q**k, q * q
    terms = lagrange_terms(q, n, (w1, w2, w3))
    return tuple(Fraction(top * p - qq * c, qq * d) for p, c, d in terms)

"""Independent second routes for `threeweight.transform`.

The library computes Krawtchouk values by the three-term recurrence, cut
at n // 2 over GF(2) by the reflection K_{n-i}(x) = (-1)^x K_i(x), and
the forced frequencies by one formula, the Lagrange form over K_1 alone
(transform.solve_three_weight_general, which transform.three_weight_solve
views at q = 2).  The routes below evaluate Krawtchouk values as sums of
generalized binomials, run the recurrence forward to K_n with no
reflection (`forward_numerators`), and solve the moment system
sum A = q^k - 1, B_1 = B_2 = 0 built from them by Cramer's rule with a 3x3
determinant per column.  Power moments, which the library does not need,
are the plain sums the tests compare with their closed forms.

`closed_form_solve` is the binary closed form of the frequencies and of
B_3, cross-checked against the Krawtchouk transform to K_3 whenever its
frequencies are nonnegative integers; `pmt_frequencies` is the closed form
for the symmetric binary triple (n/2 - t, n/2, n/2 + t), checked against
transform.three_weight_solve on every call.  `DualLanes` and
`packed_dual_sequence` are a second route to transform.dual_sequence_exact:
they pack each Krawtchouk column of a length into one big integer and
decide a whole dual distribution by one quotient test on the packed sum.
`forced_frequencies` reads the Lagrange form for one (q, n, k, weights)
and rejects unless every frequency is a positive integer: the frequencies
of the per-case reference the feasibility kernel, which inlines the same
arithmetic per length, is tested against (`catalog.reference_candidate`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from threeweight.errors import InvalidArgument, SelfCheckFailed
from threeweight.transform import ThreeWeightSolution, krawtchouk_column, solve_three_weight_general, three_weight_solve


def binomial(x: int, nu: int) -> int:
    """C(x, nu) in the generalized sense: x(x-1)...(x-nu+1)/nu!.

    Defined for every integer x (also negative).
    """
    if nu < 0:
        return 0
    num = 1
    for i in range(nu):
        num *= x - i
    den = factorial(nu)
    quot, rem = divmod(num, den)
    if rem:
        raise SelfCheckFailed(f"{nu}! does not divide the falling factorial of {x}")
    return quot


def krawtchouk(i: int, x: int, n: int, q: int) -> int:
    """K_i(x) = sum_nu (-1)^nu C(x,nu) C(n-x,i-nu) (q-1)^(i-nu), exactly."""
    total = 0
    for nu in range(i + 1):
        term = binomial(x, nu) * binomial(n - x, i - nu) * (q - 1) ** (i - nu)
        total += -term if (nu & 1) else term
    return total


@cache
def krawtchouk_values(x: int, n: int, q: int) -> tuple[int, ...]:
    """(K_0(x), ..., K_n(x)) from the binomial sums."""
    return tuple(krawtchouk(i, x, n, q) for i in range(n + 1))


def dual_sequence(
    q: int, n: int, k: int, weights: tuple[int, int, int], freqs: tuple[int, int, int]
) -> tuple[int, ...] | None:
    """All of B_0..B_n from the binomial sums, then None if any of them is
    not a nonnegative integer."""
    counts = {0: 1, **dict(zip(weights, freqs))}
    columns = [(a, krawtchouk_values(x, n, q)) for x, a in counts.items()]
    b = [Fraction(sum(a * col[i] for a, col in columns), q**k) for i in range(n + 1)]
    if any(v.denominator != 1 or v < 0 for v in b):
        return None
    return tuple(int(v) for v in b)


def forward_numerators(counts: dict[int, int], n: int, q: int) -> list[int]:
    """q^k B_i = sum_j K_i(j) A_j for i = 0..n, the column of each weight
    stepped by the three-term recurrence from K_{-1} = 0 and K_0 = 1 all
    the way to K_n, with no reflection, where transform.dual_numerators
    stops each krawtchouk_column at n // 2 over GF(2)."""
    columns = []
    for x, a in counts.items():
        prev, cur, col = 0, 1, [1]
        for i in range(n):
            top = ((q - 1) * (n - i) + i - q * x) * cur - (q - 1) * (n - i + 1) * prev
            v, rem = divmod(top, i + 1)
            if rem:
                raise SelfCheckFailed(f"K_{i + 1}({x}) is not an integer for n={n}, q={q}")
            prev, cur = cur, v
            col.append(v)
        columns.append((a, col))
    return [sum(a * col[i] for a, col in columns) for i in range(n + 1)]


def power_moment(counts: dict[int, int], nu: int) -> int:
    """sum_i i^nu A_i over the distribution."""
    return sum(a * i**nu for i, a in counts.items())


def det3(a) -> int:
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def cramer_frequencies(
    n: int, k: int, q: int, w1: int, w2: int, w3: int
) -> tuple[Fraction, Fraction, Fraction]:
    """Frequencies forced by sum A = q^k - 1 and B_1 = B_2 = 0, for any q."""
    if len({w1, w2, w3}) != 3:
        raise InvalidArgument(f"weights must be distinct, got {(w1, w2, w3)}")
    ws = (w1, w2, w3)
    m = [[1, 1, 1], [krawtchouk(1, w, n, q) for w in ws], [krawtchouk(2, w, n, q) for w in ws]]
    rhs = (q**k - 1, -krawtchouk(1, 0, n, q), -krawtchouk(2, 0, n, q))
    d = det3(m)
    if d == 0:
        raise InvalidArgument("moment system is singular")
    sols = []
    for col in range(3):
        mc = [list(row) for row in m]
        for r in range(3):
            mc[r][col] = rhs[r]
        sols.append(Fraction(det3(mc), d))
    return sols[0], sols[1], sols[2]


def forced_frequencies(
    q: int, n: int, k: int, weights: tuple[int, int, int]
) -> tuple[int, int, int] | None:
    """The frequencies (A_w1, A_w2, A_w3) forced by sum A = q^k - 1 and
    B_1 = B_2 = 0, or None unless all three are positive integers: the
    Lagrange form of transform.solve_three_weight_general, exact for every
    k >= 0."""
    freqs = solve_three_weight_general(n, k, q, *weights)
    if any(f.denominator != 1 or f <= 0 for f in freqs):
        return None
    return tuple(int(f) for f in freqs)


def is_integral(sol: ThreeWeightSolution) -> bool:
    return all(f.denominator == 1 for f in sol.frequencies) and sol.b3.denominator == 1


def solution_counts(sol: ThreeWeightSolution) -> dict[int, int]:
    """{0: 1, w_j: A_j} of an integral solution."""
    if not is_integral(sol):
        raise InvalidArgument("frequencies are not integral")
    d = {0: 1}
    for w, f in zip(sol.weights, sol.frequencies):
        d[w] = int(f)
    return d


def closed_form_solve(n: int, k: int, w1: int, w2: int, w3: int) -> ThreeWeightSolution:
    """Solve the first power moments of a binary projective [n,k] code with
    nonzero weights w1 < w2 < w3 for the frequencies and for B_3 in closed
    form.

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
    if is_integral(sol) and all(f >= 0 for f in sol.frequencies):
        columns = [(a, krawtchouk_column(w, n, 2, 3)) for w, a in solution_counts(sol).items()]
        b = [Fraction(sum(a * col[i] for a, col in columns), 1 << k) for i in range(4)]
        if b[0] != 1 or b[1] != 0 or b[2] != 0 or b[3] != b3:
            raise SelfCheckFailed(
                f"MacWilliams transform disagrees with the closed form for "
                f"n={n}, k={k}, weights={(w1, w2, w3)}: B_0..B_3 = {b[:4]}, B_3 = {b3}"
            )
    return sol


def pmt_frequencies(n: int, k: int, t: int) -> ThreeWeightSolution:
    """Frequencies for the symmetric binary weight triple (n/2-t, n/2, n/2+t).

    Must agree with three_weight_solve on the same inputs; a disagreement
    raises SelfCheckFailed.
    """
    if t < 1:
        raise InvalidArgument("t must be >= 1")
    if n % 2 != 0:
        raise InvalidArgument("n must be even")
    w1, w2, w3 = n // 2 - t, n // 2, n // 2 + t
    if not (1 <= w1 and w3 <= n):
        raise InvalidArgument(f"weights {(w1, w2, w3)} out of range for n={n}")
    y = 1 << (k - 2)
    a1 = Fraction(n * (4 * y - n - 2 * t), 8 * t * t)
    a2 = 4 * y - 1 - Fraction(n * (4 * y - n), 4 * t * t)
    a3 = Fraction(n * (4 * y - n + 2 * t), 8 * t * t)
    b3 = Fraction(n * (n - 2 * t) * (n + 2 * t), 8 * y) / 3
    sol = ThreeWeightSolution(2, n, k, (w1, w2, w3), (a1, a2, a3), b3, y)
    general = three_weight_solve(n, k, w1, w2, w3)
    if sol.frequencies != general.frequencies or sol.b3 != general.b3:
        raise SelfCheckFailed(
            f"symmetric closed form disagrees with three_weight_solve for n={n}, k={k}, t={t}"
        )
    return sol


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


def packed_dual_sequence(
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

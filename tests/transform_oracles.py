"""Independent second routes for `threeweight.transform`.

The library computes Krawtchouk values by the three-term recurrence, cut
at n // 2 over GF(2) by the reflection K_{n-i}(x) = (-1)^x K_i(x), and
the forced frequencies from the Lagrange form over K_1 alone
(transform.lagrange_terms).  The routes below evaluate Krawtchouk values as
sums of generalized binomials, run the recurrence forward to K_n with no
reflection (`forward_numerators`), and solve the moment system sum A = q^k - 1, B_1 = B_2 = 0
built from them by Cramer's rule with a 3x3 determinant per column.  Power
moments, which the library does not need, are the plain sums the tests
compare with their closed forms.  `pmt_frequencies` is the closed form for
the symmetric binary triple (n/2 - t, n/2, n/2 + t), checked against
transform.three_weight_solve on every call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from threeweight.errors import InvalidArgument, SelfCheckFailed
from threeweight.transform import ThreeWeightSolution, three_weight_solve


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

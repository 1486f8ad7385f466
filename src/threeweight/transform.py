"""MacWilliams transform machinery: Krawtchouk polynomials, dual weight
distributions, and the frequencies forced on three-weight codes by the
first power moments.

The enumeration and the scan take their frequencies from the per-length
kernel feasibility.length_candidates.  Here, moment_system builds the 3x3
moment system of one (q, n, weights) and forced_frequencies solves it by
integer Cramer's rule, rejecting on the first nonzero remainder: the
per-case route of feasibility.evaluate_candidate, which the kernel is
tested against.  The rational solvers (three_weight_solve and
pmt_frequencies for q = 2, solve_three_weight_general for any q) are the
closed-form references both are checked against.

All arithmetic is exact (integers and fractions).  Integrality of a dual
distribution is a *test* performed by callers, never an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .errors import DegenerateWeights, SelfCheckFailed


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


def krawtchouk_column(x: int, n: int, q: int, imax: int) -> list[int]:
    """[K_0(x), ..., K_imax(x)] via the three-term recurrence.

    (i+1) K_{i+1}(x) = ((q-1)(n-i) + i - qx) K_i(x) - (q-1)(n-i+1) K_{i-1}(x)
    """
    vals = [1]
    if imax >= 1:
        vals.append(n * (q - 1) - q * x)
    for i in range(1, imax):
        num = ((q - 1) * (n - i) + i - q * x) * vals[i] - (q - 1) * (n - i + 1) * vals[i - 1]
        quot, rem = divmod(num, i + 1)
        if rem:
            raise SelfCheckFailed(f"K_{i + 1}({x}) is not an integer for n={n}, q={q}")
        vals.append(quot)
    return vals[: imax + 1]


def dual_numerators(counts: dict[int, int], n: int, q: int) -> list[int]:
    """q^k * B_i = sum_j K_i(j) A_j for i = 0..n, from primal counts {weight: A_w}."""
    acc = [0] * (n + 1)
    for w, a in counts.items():
        if a == 0:
            continue
        col = krawtchouk_column(w, n, q, n)
        for i in range(n + 1):
            acc[i] += a * col[i]
    return acc


def dual_distribution(counts: dict[int, int], n: int, q: int, k: int) -> list[Fraction]:
    """Dual weight distribution B_0..B_n from primal counts {weight: A_w}.

    B_i = (1/q^k) * sum_j K_i(j) A_j, returned as exact reduced fractions.
    Callers decide what integrality or nonnegativity means for them.
    """
    size = q**k
    return [Fraction(v, size) for v in dual_numerators(counts, n, q)]


@dataclass(frozen=True)
class ThreeWeightSolution:
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
            raise ValueError("frequencies are not integral")
        d = {0: 1}
        for w, f in zip(self.weights, self.frequencies):
            d[w] = int(f)
        return d


def three_weight_solve(n: int, k: int, w1: int, w2: int, w3: int) -> ThreeWeightSolution:
    """Solve the first power moments of a binary projective [n,k] code with
    nonzero weights w1 < w2 < w3 for the frequencies and for B_3.

    When the frequencies come out as nonnegative integers the result is
    cross-checked against the full Krawtchouk transform (B_1 = B_2 = 0 and
    the same B_3 must reappear).
    """
    if len({w1, w2, w3}) != 3:
        raise DegenerateWeights(f"weights must be distinct, got {(w1, w2, w3)}")
    if not (1 <= w1 < w2 < w3 <= n):
        raise ValueError(f"need 1 <= w1 < w2 < w3 <= n, got {(w1, w2, w3)} with n={n}")
    if k < 2:
        raise ValueError("dimension must be at least 2 for a three-weight code")
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
        b = dual_distribution(sol.counts(), n, 2, k)
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
        raise ValueError("t must be >= 1")
    if n % 2 != 0:
        raise ValueError("n must be even")
    w1, w2, w3 = n // 2 - t, n // 2, n // 2 + t
    if not (1 <= w1 and w3 <= n):
        raise ValueError(f"weights {(w1, w2, w3)} out of range for n={n}")
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


class MomentSystem(NamedTuple):
    """The k-free part of sum A = q^k - 1, B_1 = B_2 = 0 for three weights.

    The matrix is [[1, 1, 1], K_1(w), K_2(w)] and the right-hand side
    (q^k - 1, r1, r2).  By Cramer's rule A_j is (q^k - 1) c0 + r1 c1 + r2 c2
    over det, where (c0, c1, c2) = cofactors[j] is column j's cofactors.
    """

    det: int
    cofactors: tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]
    rhs_tail: tuple[int, int]


def _k2(n: int, s: int, w: int) -> int:
    """K_2(w) for q = s + 1, in closed form."""
    return (n - w) * (n - w - 1) // 2 * s * s - w * (n - w) * s + w * (w - 1) // 2


@lru_cache(maxsize=64)
def moment_system(q: int, n: int, weights: tuple[int, int, int]) -> MomentSystem:
    """Integer moment system for weights, from the closed forms

    K_1(w) = n(q-1) - qw,  K_2(w) = C(n-w,2)(q-1)^2 - w(n-w)(q-1) + C(w,2).

    Cached, since nothing here depends on k: a per-case caller such as
    evaluate_candidate, swept over k, builds each system once.
    """
    w1, w2, w3 = weights
    if w1 == w2 or w1 == w3 or w2 == w3:
        raise DegenerateWeights(f"weights must be distinct, got {weights}")
    s = q - 1
    x1, x2, x3 = n * s - q * w1, n * s - q * w2, n * s - q * w3
    y1, y2, y3 = _k2(n, s, w1), _k2(n, s, w2), _k2(n, s, w3)
    cofactors = (
        (x2 * y3 - x3 * y2, y2 - y3, x3 - x2),
        (x3 * y1 - x1 * y3, y3 - y1, x1 - x3),
        (x1 * y2 - x2 * y1, y1 - y2, x2 - x1),
    )
    det = cofactors[0][0] + cofactors[1][0] + cofactors[2][0]
    if det == 0:
        raise DegenerateWeights("moment system is singular")
    return MomentSystem(det, cofactors, (-n * s, -(n * (n - 1) // 2) * s * s))


def forced_frequencies(
    q: int, n: int, k: int, weights: tuple[int, int, int]
) -> tuple[int, int, int] | None:
    """The frequencies (A_w1, A_w2, A_w3) forced by sum A = q^k - 1 and
    B_1 = B_2 = 0, or None as soon as one is not a positive integer."""
    det, cofactors, (r1, r2) = moment_system(q, n, weights)
    top = q**k - 1
    out = []
    for c0, c1, c2 in cofactors:
        a, rem = divmod(top * c0 + r1 * c1 + r2 * c2, det)
        if rem or a <= 0:
            return None
        out.append(a)
    return tuple(out)


def solve_three_weight_general(
    n: int, k: int, q: int, w1: int, w2: int, w3: int
) -> tuple[Fraction, Fraction, Fraction]:
    """Frequencies forced by B_1 = B_2 = 0 for any prime power q, as exact
    rationals: the Cramer numerators of moment_system over its determinant."""
    det, cofactors, (r1, r2) = moment_system(q, n, (w1, w2, w3))
    top = q**k - 1
    return tuple(Fraction(top * c0 + r1 * c1 + r2 * c2, det) for c0, c1, c2 in cofactors)

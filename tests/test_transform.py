from __future__ import annotations

import random
import re
from fractions import Fraction
from math import comb

import pytest

from threeweight import transform
from threeweight.code import parity_check_code, simplex
from threeweight.errors import InvalidArgument, SelfCheckFailed
from threeweight.feasibility import weight_triples
from threeweight.gfmat import GF2
from threeweight.transform import (
    dual_distribution,
    dual_numerators,
    krawtchouk_column,
    solve_three_weight_general,
    three_weight_solve,
)

import transform_oracles
from catalog import dimension_range
from code_oracles import kernel_basis
from transform_oracles import (
    binomial,
    closed_form_solve,
    cramer_frequencies,
    det3,
    forced_frequencies,
    forward_numerators,
    is_integral,
    krawtchouk,
    pmt_frequencies,
)


def test_binomial_generalized():
    assert binomial(5, 2) == 10
    assert binomial(-1, 3) == -1
    assert binomial(-2, 2) == 3
    assert binomial(3, 5) == 0
    assert binomial(0, 0) == 1


def test_krawtchouk_basics():
    for j in range(7):
        assert krawtchouk(0, j, 6, 2) == 1
    assert krawtchouk(1, 0, 6, 2) == 6
    assert krawtchouk(1, 0, 9, 3) == 18
    assert krawtchouk(2, 3, 6, 2) == -3


@pytest.mark.parametrize("q,n", [(2, 10), (3, 9), (2, 17)])
def test_krawtchouk_recurrence_matches_sum(q, n):
    for x in range(n + 1):
        col = krawtchouk_column(x, n, q, n)
        for i in range(n + 1):
            assert col[i] == krawtchouk(i, x, n, q)


@pytest.mark.parametrize("n", range(65))
def test_binary_reflection_matches_forward_recurrence_on_each_weight(n):
    for x in range(n + 1):
        assert list(dual_numerators({x: 1}, n, 2)) == forward_numerators({x: 1}, n, 2), x


def test_dual_numerators_match_forward_recurrence_on_random_counts():
    rng = random.Random(41)
    # n = 0, and counts with no nonzero entry, before the random ones
    cases = [(q, n, counts) for q in (2, 3) for n, counts in ((0, {0: 5}), (0, {}), (9, {2: 0, 5: 0}))]
    for _ in range(300):
        q = rng.choice((2, 3))
        n = rng.randint(0, 120)
        weights = rng.sample(range(n + 1), rng.randint(1, min(n + 1, 6)))
        cases.append((q, n, {w: rng.choice((0, 1, rng.randint(1, 10**6))) for w in weights}))
    for q, n, counts in cases:
        assert list(dual_numerators(counts, n, q)) == forward_numerators(counts, n, q), (q, n, counts)


def test_dual_numerators_match_forward_recurrence_on_fixtures(fixture_codes):
    assert len(fixture_codes) == 74
    for _, code, _ in fixture_codes:
        counts = code.weight_distribution().as_dict()
        want = forward_numerators(counts, code.n, code.q)
        assert list(dual_numerators(counts, code.n, code.q)) == want, code


def test_krawtchouk_column_steps_only_to_imax():
    # K_0..K_4 of one weight at n = 1000 take four recurrence steps, not
    # the n // 2 = 500 that reach the upper half
    assert krawtchouk_column(3, 1000, 2, 4) == [krawtchouk(i, 3, 1000, 2) for i in range(5)]


@pytest.mark.parametrize("q", [2, 3])
def test_dual_numerators_sum_one_column_per_nonzero_weight(monkeypatch, q):
    # the recurrence is stepped in krawtchouk_column alone: one column per
    # weight with A_w != 0, to n // 2 over GF(2) and to n over GF(3)
    calls = []
    real = transform.krawtchouk_column
    monkeypatch.setattr(transform, "krawtchouk_column", lambda *args: calls.append(args) or real(*args))
    counts = {0: 1, 4: 0, 7: 3, 12: 5, 13: 2}
    got = dual_numerators(counts, 20, q)
    assert got == forward_numerators(counts, 20, q)
    assert sorted(calls) == [(w, 20, q, 10 if q == 2 else 20) for w in (0, 7, 12, 13)]


def test_krawtchouk_column_runs_past_the_midpoint_without_reflection():
    # the single-column loop steps all the way to imax, also over GF(2)
    for n in (1, 2, 7, 40):
        for x in range(n + 1):
            assert krawtchouk_column(x, n, 2, n) == list(dual_numerators({x: 1}, n, 2)), (n, x)


@pytest.mark.parametrize("q", [2, 3])
def test_orthogonality_bounds_every_krawtchouk_value(q):
    """K_i(x)^2 v_x <= q^n v_i, v_x = C(n, x)(q-1)^x, for every n <= 64 and
    every x and i: the bound of the dual test's middle lanes, from
    sum_x v_x K_i(x)^2 = q^n v_i.  v is log-concave in x, so the lanes past
    any threshold form one interval."""
    for n in range(65):
        v = [comb(n, x) * (q - 1) ** x for x in range(n + 1)]
        columns = [krawtchouk_column(x, n, q, n) for x in range(n + 1)]
        for i in range(n + 1):
            terms = [v[x] * columns[x][i] ** 2 for x in range(n + 1)]
            assert sum(terms) == q**n * v[i], (q, n, i)
            assert max(terms) <= q**n * v[i], (q, n, i)
        assert all(v[x] ** 2 >= v[x - 1] * v[x + 1] for x in range(1, n)), (q, n)


@pytest.mark.parametrize("q", [2, 3])
def test_cauchy_schwarz_bounds_the_middle_lanes_without_a_factor(q):
    """(sum_j A_j K_i(w_j))^2 D <= q^n v_i sum_j A_j^2 D / v_(w_j), with
    D = prod_j v_(w_j), for seeded lengths, weight triples, frequencies of
    both signs and every lane i: the bound of dual_sequence_exact's middle
    lanes, from sum_j v_(w_j) K_i(w_j)^2 <= q^n v_i and Cauchy-Schwarz."""
    rng = random.Random(q)
    for _ in range(300):
        n = rng.randint(3, 48)
        weights = sorted(rng.sample(range(1, n + 1), 3))
        freqs = [rng.randint(-(10**6), 10**6) for _ in range(3)]
        v = [comb(n, x) * (q - 1) ** x for x in range(n + 1)]
        columns = [krawtchouk_column(w, n, q, n) for w in weights]
        u1, u2, u3 = (v[w] for w in weights)
        a1, a2, a3 = freqs
        numerator = a1 * a1 * u2 * u3 + a2 * a2 * u1 * u3 + a3 * a3 * u1 * u2
        for i in range(n + 1):
            assert sum(v[w] * column[i] ** 2 for w, column in zip(weights, columns)) <= q**n * v[i]
            lane = sum(a * column[i] for a, column in zip(freqs, columns))
            assert lane * lane * u1 * u2 * u3 <= q**n * v[i] * numerator, (q, n, weights, freqs, i)


@pytest.mark.parametrize("q", [2, 3])
def test_binomial_moments_of_krawtchouk_values(q):
    """sum_(i <= nu) C(n-i, nu-i) K_i(w) = q^nu C(n-w, nu), the identity
    behind the dual test's integrality: summed against the A_w it gives
    T_nu = q^(k-nu) sum_(i <= nu) C(n-i, nu-i) B_i."""
    for n in range(41):
        columns = [krawtchouk_column(w, n, q, n) for w in range(n + 1)]
        for w in range(n + 1):
            for nu in range(n + 1):
                lhs = sum(comb(n - i, nu - i) * columns[w][i] for i in range(nu + 1))
                assert lhs == q**nu * comb(n - w, nu), (q, n, w, nu)


@pytest.mark.parametrize("q", [2, 3])
def test_closed_form_k3_matches_recurrence(q):
    # the kernel's B_3 step reads K_3 from the column stepped to i = 3,
    # past i = n for n < 3, where the recurrence gives K_3 = 0
    for n in range(81):
        for x in range(n + 1):
            assert krawtchouk_column(x, n, q, 3)[3] == transform_oracles.krawtchouk(3, x, n, q), (n, x)


def _span_weights(code):
    # independent enumeration of a code's weight multiset via its kernel/dual
    return code.weight_distribution().as_dict()


def test_dual_distribution_simplex_vs_direct_enumeration():
    s3 = simplex(2, 3)
    b = dual_distribution(_span_weights(s3), 7, 2, 3)
    # oracle: enumerate the dual (= [7,4] Hamming) directly from the kernel
    from threeweight.code import LinearCode

    dual = LinearCode(GF2, kernel_basis(s3.generator))
    direct = dual.weight_distribution()
    assert [int(v) for v in b] == [direct.frequency(i) for i in range(8)]
    assert [int(v) for v in b] == [1, 0, 0, 7, 7, 0, 0, 1]


def test_dual_distribution_parity_check():
    pc = parity_check_code(6)
    b = dual_distribution(pc.weight_distribution().as_dict(), 6, 2, 5)
    assert b == [1, 0, 0, 0, 0, 0, 1]


def test_dual_distribution_hypothetical_candidate_b3():
    counts = {0: 1, 46: 32, 48: 145, 56: 78}
    b = dual_distribution(counts, 100, 2, 8)
    assert b[0] == 1 and b[1] == 0 and b[2] == 0
    assert b[3] == 580
    nums = list(dual_numerators(counts, 100, 2))
    assert nums[:4] == [256, 0, 0, 580 * 256]
    assert [Fraction(v, 2**8) for v in nums] == b


def test_macwilliams_involution_on_codes():
    for code in (simplex(2, 3), parity_check_code(6), simplex(3, 2)):
        n, k, q = code.n, code.k, code.q
        a = code.weight_distribution().as_dict()
        b = dual_distribution(a, n, q, k)
        b_counts = {i: int(v) for i, v in enumerate(b) if v}
        back = dual_distribution(b_counts, n, q, n - k)
        assert [int(v) for v in back] == [a.get(i, 0) for i in range(n + 1)]


@pytest.mark.parametrize(
    "n,k,w,expect,b3",
    [
        (24, 11, (8, 12, 16), (378, 1288, 381), None),
        (32, 10, (8, 16, 24), (61, 899, 63), None),
        (100, 8, (46, 48, 56), (32, 145, 78), 580),
    ],
)
def test_three_weight_solve_known_values(n, k, w, expect, b3):
    sol = three_weight_solve(n, k, *w)
    assert tuple(int(f) for f in sol.frequencies) == expect
    if b3 is not None:
        assert sol.b3 == b3


def test_three_weight_solve_rejects_degenerate():
    with pytest.raises(InvalidArgument, match="distinct"):
        three_weight_solve(10, 4, 3, 3, 6)


def test_b3_integrality_forces_product_divisibility():
    # whenever B3 comes out integral, 2^(k-2) must divide w1*w2*w3
    sol = three_weight_solve(24, 11, 8, 12, 16)
    assert is_integral(sol)
    assert (8 * 12 * 16) % (1 << 9) == 0


def test_pmt_matches_solve_symbolically_checked_cases():
    sol = pmt_frequencies(32, 10, 8)
    assert tuple(int(f) for f in sol.frequencies) == (61, 899, 63)
    sol = pmt_frequencies(4, 3, 1)
    assert tuple(int(f) for f in sol.frequencies) == (1, 3, 3)


def test_pmt_frequency_difference_identity():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(6, 300, 2)
        t = rng.randint(1, n // 2 - 1)
        k = rng.randint(3, 16)
        sol = pmt_frequencies(n, k, t)
        assert sol.frequencies[2] - sol.frequencies[0] == Fraction(n, 2 * t)


def test_pmt_agrees_with_solve_randomized():
    rng = random.Random(9)
    for _ in range(1000):
        n = rng.randrange(6, 400, 2)
        t = rng.randint(1, n // 2 - 1)
        k = rng.randint(3, 20)
        sol = pmt_frequencies(n, k, t)  # asserts agreement internally
        general = three_weight_solve(n, k, n // 2 - t, n // 2, n // 2 + t)
        assert sol.frequencies == general.frequencies and sol.b3 == general.b3


def test_general_solver_matches_binary_formulas():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randrange(6, 120, 2)
        ws = sorted(rng.sample(range(1, n + 1), 3))
        if sum(ws) * 2 != 3 * n:
            continue
        k = rng.randint(3, 12)
        a = solve_three_weight_general(n, k, 2, *ws)
        b = closed_form_solve(n, k, *ws).frequencies
        assert a == tuple(b)


def test_general_solver_ternary_first_row():
    # the length-3 ternary catalog row: frequencies forced to (6, 12, 8)
    a = solve_three_weight_general(3, 3, 3, 1, 2, 3)
    assert a == (6, 12, 8)


def test_general_solver_matches_cramer_oracle():
    rng = random.Random(23)
    for _ in range(300):
        q = rng.choice((2, 3, 5))
        n = rng.randint(3, 150)
        ws = sorted(rng.sample(range(1, n + 1), 3))
        k = rng.randint(1, 16)
        assert solve_three_weight_general(n, k, q, *ws) == cramer_frequencies(n, k, q, *ws)


def test_general_solver_rejects_degenerate():
    with pytest.raises(InvalidArgument, match="distinct"):
        solve_three_weight_general(10, 4, 3, 3, 3, 6)
    with pytest.raises(InvalidArgument, match="distinct"):
        forced_frequencies(3, 10, 4, (3, 3, 6))


@pytest.mark.parametrize("q,n_max", [(2, 80), (3, 39)])
def test_forced_frequencies_match_rational_oracle(q, n_max):
    """Every (n, weights, k) the enumeration evaluates: the kernel returns
    None exactly when some oracle frequency is non-integral or <= 0, and the
    oracle integers otherwise."""
    cases = hits = 0
    for n in range(1, n_max + 1):
        for ws in weight_triples(q, n):
            for k in dimension_range(q, n, ws):
                if q == 2:
                    ref = closed_form_solve(n, k, *ws).frequencies
                else:
                    ref = cramer_frequencies(n, k, q, *ws)
                got = forced_frequencies(q, n, k, ws)
                cases += 1
                if any(f.denominator != 1 or f <= 0 for f in ref):
                    assert got is None, (q, n, k, ws, ref)
                else:
                    assert got == tuple(int(f) for f in ref), (q, n, k, ws, ref)
                    hits += 1
    assert cases > 1000 and hits > 50


def test_moment_system_determinant_is_scaled_vandermonde():
    # det [[1,1,1], K_1(w), K_2(w)] = -(q^3/2) (w2-w1)(w3-w1)(w3-w2)
    for q, n, ws in [(2, 24, (8, 12, 16)), (3, 39, (21, 27, 30)), (5, 20, (2, 9, 17))]:
        w1, w2, w3 = ws
        m = [[1, 1, 1]] + [[krawtchouk(i, w, n, q) for w in ws] for i in (1, 2)]
        det = det3(m)
        assert -2 * det == q**3 * (w2 - w1) * (w3 - w1) * (w3 - w2)


@pytest.mark.parametrize("q", [5, 7])
def test_frequencies_match_cramer_oracle_in_low_dimension(q):
    """k = 0 and 1, where q^(k-2) is not an integer: both routes of the
    Lagrange form against the Cramer oracle.  No code of dimension below 2
    has three weights, so forced_frequencies must reject every case, also
    the ones whose frequencies are all integers."""
    rng = random.Random(31 + q)
    integral = 0
    for _ in range(400):
        n = rng.randint(3, 60)
        ws = tuple(sorted(rng.sample(range(1, n + 1), 3)))
        for k in (0, 1):
            ref = cramer_frequencies(n, k, q, *ws)
            assert solve_three_weight_general(n, k, q, *ws) == ref
            assert forced_frequencies(q, n, k, ws) is None, (q, n, k, ws, ref)
            if all(f.denominator == 1 for f in ref):
                assert min(ref) <= 0
                integral += 1
    assert integral >= 10


def test_three_weight_solve_cross_check_raises(monkeypatch):
    real = transform_oracles.krawtchouk_column

    def wrong_k3(x, n, q, imax):
        col = real(x, n, q, imax)
        return col[:3] + [col[3] + (x == 0)] + col[4:]

    monkeypatch.setattr(transform_oracles, "krawtchouk_column", wrong_k3)
    with pytest.raises(SelfCheckFailed, match=re.escape("B_3 = 580")):
        closed_form_solve(100, 8, 46, 48, 56)


def test_three_weight_solve_reads_at_most_four_numerators(monkeypatch):
    """The closed form's self-check compares B_0..B_3 only, so no column it
    steps goes past K_3 (the whole distribution would step each to
    n // 2 = 50)."""
    real = transform_oracles.krawtchouk_column
    calls = []
    monkeypatch.setattr(transform_oracles, "krawtchouk_column", lambda *args: calls.append(args) or real(*args))
    sol = closed_form_solve(100, 8, 46, 48, 56)
    assert sol.b3 == 580
    assert sorted(calls) == [(w, 100, 2, 3) for w in (0, 46, 48, 56)]


def test_three_weight_solve_matches_the_closed_form():
    """The view (the Lagrange form at q = 2, B_3 from K_3) returns the
    closed form's tuple, Fractions and y included, on every triple of
    condition (i) for n <= 48 and every 2 <= k <= 18."""
    cases = 0
    for n in range(3, 49):
        for ws in weight_triples(2, n):
            for k in range(2, 19):
                assert three_weight_solve(n, k, *ws) == closed_form_solve(n, k, *ws), (n, k, ws)
                cases += 1
    assert cases == 39_100


def test_pmt_frequencies_agreement_check_raises(monkeypatch):
    real = transform.three_weight_solve

    def shifted(n, k, w1, w2, w3):
        sol = real(n, k, w1, w2, w3)
        a1, a2, a3 = sol.frequencies
        return sol._replace(frequencies=(a1 + 1, a2, a3))

    monkeypatch.setattr(transform_oracles, "three_weight_solve", shifted)
    with pytest.raises(SelfCheckFailed):
        pmt_frequencies(32, 10, 8)

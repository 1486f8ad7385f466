from __future__ import annotations

import random
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threeweight import curve
from threeweight.curve import (
    CurveQuery,
    monomial_sum,
    normalize_point,
    search_integral_points,
    vandam_lhs,
)
from threeweight.errors import CodesError, GuardExceeded, SelfCheckFailed

from curve_oracles import box_search, horner, identity_check, least_nonnegative

OBVIOUS = [(0, 1, -1), (1, -1, 0), (1, 0, -1)]


def test_vandam_parametric_family():
    for t in (1, 2, 17, 10**6):
        for s in (3, 5, 7, 9):
            assert vandam_lhs(s, t, 0, -t) == 0


def test_vandam_factorization_at_s3():
    rng = random.Random(4)
    for _ in range(100):
        t1, t2, t3 = (rng.randint(-50, 50) for _ in range(3))
        if t1 + t2 + t3 == 0:
            assert vandam_lhs(3, t1, t2, t3) == 0


def test_vandam_product_form_example():
    assert vandam_lhs(5, 3, 1, -2) == 660
    assert (3 - 1) * (3 + 2) * (1 + 2) * monomial_sum(3, 3, 1, -2) == 660


def test_monomial_sum_values():
    assert monomial_sum(1, 2, 3, 4) == 9
    assert monomial_sum(3, 1, 1, 1) == 10  # C(5,2) monomials of degree 3
    assert monomial_sum(3, 1, -1, 0) == 0


def test_identity_check_randomized():
    rng = random.Random(8)
    for s in range(2, 12):
        for _ in range(100):
            args = [rng.randint(-(10**6), 10**6) for _ in range(3)]
            assert identity_check(s, *args)


def test_identity_check_degenerate():
    assert identity_check(7, 5, 5, -3)
    assert identity_check(7, 2, -1, -1)


def test_normalize_point():
    assert normalize_point((-2, 0, 2)) == (1, 0, -1)
    assert normalize_point((0, -3, 3)) == (0, 1, -1)
    with pytest.raises(ValueError):
        normalize_point((0, 0, 0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: normalize_point((0, 0, 0)),
        lambda: vandam_lhs(1, 3, 1, -2),
        lambda: monomial_sum(-1, 3, 1, -2),
    ],
    ids=["normalize_point", "vandam_lhs", "monomial_sum"],
)
def test_domain_errors_are_codes_errors(call):
    with pytest.raises(CodesError):
        call()


@pytest.mark.parametrize("d,bound", [(3, 100), (5, 100)])
def test_search_returns_only_obvious_points(d, bound):
    pts = search_integral_points(CurveQuery(d, bound))
    assert pts == OBVIOUS


def test_search_guard():
    with pytest.raises(GuardExceeded):
        search_integral_points(CurveQuery(3, 2001))


def test_degree_guard_admits_its_own_degree():
    assert curve.DEGREE_GUARD >= 12  # the largest degree tests/test_cli_fuzz.py draws
    pts = search_integral_points(CurveQuery(curve.DEGREE_GUARD, 5))
    assert pts == (OBVIOUS if curve.DEGREE_GUARD % 2 else [])
    for d in (curve.DEGREE_GUARD + 1, curve.DEGREE_GUARD + 2):
        with pytest.raises(GuardExceeded):
            search_integral_points(CurveQuery(d, 5))


def test_search_output_closed_under_coordinate_permutations():
    pts = set(search_integral_points(CurveQuery(3, 60)))
    for a, b, c in list(pts):
        for perm in ((a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)):
            assert normalize_point(perm) in pts


def test_search_cross_check_against_unreduced_brute_force():
    bound = 30
    d = 3
    brute = set()
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                if len({a, b, c}) == 3 and vandam_lhs(d + 2, a, b, c) == 0:
                    brute.add(normalize_point((a, b, c)))
    pts = set(search_integral_points(CurveQuery(d, bound)))
    distinct = {p for p in pts if len(set(p)) == 3}
    assert brute == distinct


def test_even_degree_box_has_no_ordered_zero():
    # even s: no real (hence no integer) solutions with t1 > t2 > t3
    for s in (4, 6):
        for a in range(-12, 13):
            for b in range(-12, 13):
                for c in range(-12, 13):
                    if a > b > c:
                        assert vandam_lhs(s, a, b, c) != 0


@pytest.mark.parametrize("d,bound", [(d, 40) for d in range(1, 10)] + [(3, 100), (5, 100)])
def test_search_matches_box_oracle(d, bound):
    pts = search_integral_points(CurveQuery(d, bound))
    assert pts == box_search(d, bound)


@pytest.mark.parametrize("d", [1, 3, 5, 7, 9])
def test_odd_degree_is_strictly_increasing_in_last_coordinate(d):
    # the staircase and the bisection oracle need
    # d/dc h_d(a, b, c) = h_(d-1)(a, b, c, c) > 0 for a != 0
    rng = random.Random(d)
    for scale in (3, 100, 10**6):
        for _ in range(300):
            a = rng.choice([-1, 1]) * rng.randint(1, scale)
            b, c = rng.randint(-scale, scale), rng.randint(-scale, scale)
            assert monomial_sum(d, a, b, c) < monomial_sum(d, a, b, c + 1)


@pytest.mark.parametrize("d", [1, 3, 5, 7, 9])
def test_odd_degree_is_strictly_increasing_in_middle_coordinate(d):
    # the staircase needs d/db h_d(a, b, c) = h_(d-1)(a, b, b, c) > 0 for a != 0
    rng = random.Random(d)
    for scale in (3, 100, 10**6):
        for _ in range(300):
            a = rng.choice([-1, 1]) * rng.randint(1, scale)
            b, c = rng.randint(-scale, scale), rng.randint(-scale, scale)
            assert monomial_sum(d, a, b, c) < monomial_sum(d, a, b + 1, c)


@pytest.mark.parametrize("name", ["monomial_sum", "vandam_lhs"])
def test_search_self_checks_raise(monkeypatch, name):
    monkeypatch.setattr(curve, name, lambda d, *t: 1)
    with pytest.raises(SelfCheckFailed):
        search_integral_points(CurveQuery(3, 5))


def _pair_coefficients(d, a, b):
    # f(c) = h_d(a, b, c) = sum_j h_j(a, b) c^(d-j)
    return [sum(a**i * b ** (j - i) for i in range(j + 1)) for j in range(d + 1)]


def _scan(coeffs, lo, hi):
    for c in range(lo, hi + 1):
        value = horner(coeffs, c)
        if value >= 0:
            return c, value
    return None


@pytest.mark.parametrize("d", [1, 3, 5, 7, 9])
def test_least_nonnegative_matches_linear_scan_on_every_pair(d):
    bound = 60
    for a in range(1, bound + 1):
        for b in range(-a, a + 1):
            coeffs = _pair_coefficients(d, a, b)
            lo, hi = -a, min(b, 0)
            assert least_nonnegative(coeffs, lo, hi) == _scan(coeffs, lo, hi), (a, b)


@pytest.mark.parametrize("d", [1, 3, 5, 7, 9])
def test_staircase_matches_bisection_on_every_pair(d):
    bound = 60
    rows = {a: {b: (c, value) for b, c, value in curve._staircase(d, a)} for a in range(1, bound + 1)}
    for a, visited in rows.items():
        # the staircase visits the coprime pairs of a prefix 0, -1, ... of the row
        coprime = [b for b in range(0, -a - 1, -1) if gcd(a, b) == 1]
        assert list(visited) == coprime[: len(visited)], a
        for b in range(-a, a + 1):
            found = least_nonnegative(_pair_coefficients(d, a, b), -a, min(b, 0))
            g = gcd(a, b)
            if b > 0:  # left out: the least c is -a, where f is positive, so no root
                value = sum(b**j * a ** (d - j) for j in range(1, d + 1, 2))
                assert value > 0 and found == (-a, value), (a, b)
            elif b in visited:
                assert visited[b] == found, (a, b)
            elif g == 1:  # past the prefix: no c in [-a, b] with f(c) >= 0, so no root
                assert found is None, (a, b)
            elif found is not None and found[1] == 0:  # a root g times one of row a / g
                assert found[0] % g == 0 and rows[a // g].get(b // g) == (found[0] // g, 0), (a, b)


@pytest.mark.parametrize("d", range(1, curve.DEGREE_GUARD + 1, 2))
def test_h_d_at_minus_a_is_the_odd_part_in_b(d):
    # h_d(x, y, z) = sum_j y^j h_(d-j)(x, z), and h_m(a, -a) is a^m for even
    # m and 0 for odd m, so h_d(a, b, -a) = sum_(j odd) b^j a^(d-j) for odd d
    rng = random.Random(d)
    for _ in range(100):
        a = rng.choice([-1, 1]) * rng.randint(1, 10**4)
        b = rng.choice([-1, 1]) * rng.randint(0, 10**4)
        assert monomial_sum(d, a, 0, -a) == 0
        assert monomial_sum(d - 1, a, 0, -a) == a ** (d - 1)
        assert monomial_sum(d, a, b, -a) == sum(b**j * a ** (d - j) for j in range(1, d + 1, 2)), (a, b)


@pytest.mark.parametrize("d,pairs", [(3, 1843), (5, 2033)])
def test_staircase_visits_only_the_b_le_0_half_of_each_row(d, pairs):
    # full rows from b = a visited 4,887 pairs for d = 3 and 5,077 for d = 5
    assert sum(1 for a in range(1, 101) for _ in curve._staircase(d, a)) == pairs


@st.composite
def planted_root_polynomials(draw):
    """f(c) = sum_i a_i (m c - s)^(2i+1), a_i >= 0 not all zero: strictly
    increasing with its only real root at s / m."""
    weights = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4))
    weights[draw(st.integers(0, len(weights) - 1))] += 1
    m = draw(st.integers(1, 3))
    s = draw(st.integers(-150, 150))
    degree = 2 * len(weights) - 1
    coeffs = [0] * (degree + 1)  # highest degree first
    for i, w in enumerate(weights):
        e = 2 * i + 1
        for j in range(e + 1):  # w C(e, j) (m c)^j (-s)^(e-j)
            coeffs[degree - j] += w * comb(e, j) * m**j * (-s) ** (e - j)
    return coeffs, weights, m, s


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(planted_root_polynomials(), st.integers(-60, 60), st.integers(0, 60))
def test_least_nonnegative_finds_planted_roots(poly, lo, width):
    coeffs, weights, m, s = poly
    hi = lo + width
    root = max(lo, -(-s // m))  # the least integer c >= s / m, within [lo, hi]
    value = sum(w * (m * root - s) ** (2 * i + 1) for i, w in enumerate(weights))
    expected = (root, value) if root <= hi else None
    assert least_nonnegative(coeffs, lo, hi) == expected

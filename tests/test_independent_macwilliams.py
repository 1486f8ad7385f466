"""Cross-validate the Krawtchouk-recurrence dual distributions against an
independent symbolic MacWilliams transform (polynomial substitution) for
every catalog row, every suppressed candidate, the scan rows past length
511 and to 1023, and a seeded sample of the rows past 1023: the whole
distribution as dual_numerators streams it, and B_0..B_3 as the dual test
of the feasibility kernel and its packed test oracle read them."""

from __future__ import annotations

import random

import pytest

sympy = pytest.importorskip("sympy")

from threeweight.feasibility import dual_sequence_exact, enumerate_candidates
from threeweight.transform import dual_numerators

from catalog import SCAN, TABLE1, TABLE2
from transform_oracles import DualLanes, packed_dual_sequence


def sympy_dual(n: int, q: int, k: int, counts: dict[int, int]) -> list[int]:
    x = sympy.symbols("x")
    poly = sympy.Poly(0, x, domain="ZZ")
    for w, a in counts.items():
        poly += a * sympy.Poly(1 + (q - 1) * x, x) ** (n - w) * sympy.Poly(1 - x, x) ** w
    out = []
    for i in range(n + 1):
        coeff = poly.coeff_monomial(x**i)
        quotient = sympy.Rational(coeff, q**k)
        assert quotient.is_integer
        out.append(int(quotient))
    return out


def _check_against_sympy(q, n, k, weights, freqs):
    """The whole streamed distribution, and B_0..B_3 of the dual test and
    of the packed oracle."""
    counts = {0: 1, **dict(zip(weights, freqs))}
    b = sympy_dual(n, q, k, counts)
    assert [v // q**k for v in dual_numerators(counts, n, q)] == b, (n, k, weights)
    assert dual_sequence_exact(q, n, k, weights, freqs) == tuple(b[:4]), (n, k, weights)
    assert packed_dual_sequence(DualLanes(q, n), k, weights, freqs) == tuple(b[:4]), (n, k, weights)
    return b


@pytest.mark.parametrize("q,lo,hi,table", [(2, 4, 71, TABLE1), (3, 3, 39, TABLE2)])
def test_candidate_dual_sequences_match_symbolic_transform(q, lo, hi, table):
    cands = {(c.n, c.k, c.weights): c for c in enumerate_candidates(q, lo, hi)}
    # the enumeration covers the catalog plus the suppressed extras; check all
    for c in cands.values():
        b = _check_against_sympy(q, c.n, c.k, c.weights, c.frequencies)
        assert c.b3 == b[3], (c.n, c.k)
    for n, k, w, freqs, _ in table:
        assert cands[(n, k, w)].frequencies == freqs


def _check_scan_rows(rows):
    for n, k, ws, freqs, b3 in rows:
        b = _check_against_sympy(2, n, k, ws, freqs)
        assert b[:4] == [1, 0, 0, b3]


def test_scan_rows_past_511_match_symbolic_transform():
    rows = [r for r in SCAN if 511 < r[0] < 1024]
    assert len(rows) == 24
    _check_scan_rows(rows)


def test_sampled_scan_rows_past_1023_match_symbolic_transform():
    # the symbolic product grows like n^2.5 (0.7 s at n = 1032, 29 s at
    # n = 4256), so the sample is drawn from the rows below 2048
    rows = [r for r in SCAN if 1023 < r[0] < 2048]
    assert len(rows) == 97
    _check_scan_rows(random.Random(2047).sample(rows, 3))

"""Cross-validate the Krawtchouk-recurrence dual distributions against an
independent symbolic MacWilliams transform (polynomial substitution) for
every catalog row, every suppressed candidate and the scan rows past
length 511."""

from __future__ import annotations

import pytest

sympy = pytest.importorskip("sympy")

from threeweight.feasibility import dual_sequence_exact, enumerate_candidates

from catalog import SCAN, TABLE1, TABLE2


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


@pytest.mark.parametrize("q,lo,hi,table", [(2, 4, 71, TABLE1), (3, 3, 39, TABLE2)])
def test_candidate_dual_sequences_match_symbolic_transform(q, lo, hi, table):
    cands = {(c.n, c.k, c.weights): c for c in enumerate_candidates(q, lo, hi)}
    # the enumeration covers the catalog plus the suppressed extras; check all
    for c in cands.values():
        counts = {0: 1}
        counts.update(zip(c.weights, c.frequencies))
        b = sympy_dual(c.n, q, c.k, counts)
        assert list(dual_sequence_exact(q, c.n, c.k, c.weights, c.frequencies)) == b, (c.n, c.k)
        assert c.b3 == b[3], (c.n, c.k)
    for n, k, w, freqs, _ in table:
        assert cands[(n, k, w)].frequencies == freqs


def test_scan_rows_past_511_match_symbolic_transform():
    rows = [r for r in SCAN if r[0] > 511]
    assert len(rows) == 24
    for n, k, ws, freqs, b3 in rows:
        counts = {0: 1}
        counts.update(zip(ws, freqs))
        b_seq = dual_sequence_exact(2, n, k, ws, freqs)
        b = sympy_dual(n, 2, k, counts)
        assert list(b_seq) == b, (n, k, ws)
        assert b[:4] == [1, 0, 0, b3]

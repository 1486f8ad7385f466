"""The triples one length hands the feasibility kernel, listed by the
production routes of `threeweight.triples` (not by the oracle in
`triples_oracles`), for tests that run `length_candidates` one length at a
time.  Also imported by the `python -O` scripts of `test_no_asserts`."""

from __future__ import annotations

from threeweight.triples import binary_triples, ternary_triples


def length_triples(q: int, n: int, midpoint: bool = True) -> list[tuple[int, int, int]]:
    """The triples enumerate_candidates (midpoint=True) or, for q = 2,
    counterexample_scan (midpoint=False) passes the kernel at length n; none
    for a q outside {2, 3}, which the kernel rejects on its own."""
    if q == 2:
        return next(binary_triples(n, n, midpoint), (n, []))[1]
    return list(ternary_triples(n)) if q == 3 else []

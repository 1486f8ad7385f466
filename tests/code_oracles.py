"""Independent second route for `threeweight.code` weight distributions.

The library walks the modular q-ary Gray code, one generator row added per
step, with the words held as bit masks (GF(2)), two bit-planes (GF(3)) or
tuples (p >= 5).  The route below recurses over the coefficient of each
row in turn and builds every codeword as a tuple from the previous one.
"""

from __future__ import annotations


def recursive_weight_counts(rows: tuple[tuple[int, ...], ...], p: int) -> dict[int, int]:
    """{weight: number of codewords} over all p^k coefficient vectors."""
    n = len(rows[0])
    counts: dict[int, int] = {}

    def rec(i: int, current: tuple[int, ...]) -> None:
        if i == len(rows):
            w = n - current.count(0)
            counts[w] = counts.get(w, 0) + 1
            return
        row = rows[i]
        acc = current
        rec(i + 1, acc)
        for _ in range(1, p):
            acc = tuple((a + b) % p for a, b in zip(acc, row))
            rec(i + 1, acc)

    rec(0, (0,) * n)
    return counts

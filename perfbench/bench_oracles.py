"""Reference computations that check the program's outputs.

Nothing here imports threeweight.  Each check recomputes its quantity by a
route the program does not take: Gaussian elimination written out again,
the MacWilliams transform through its generating function instead of the
Krawtchouk recurrence, h_d through a two-variable recurrence instead of the
telescoped numerator, and a plain box scan instead of the symmetry-reduced
search.
"""

from __future__ import annotations

import json
import re
from math import gcd

FIXTURE_RE = re.compile(r"^q(\d+)_n(\d+)_k(\d+)_w(\d+)_(\d+)_(\d+)\.txt$")
VERIFY_HEAD_RE = re.compile(r"^\[(\d+),(\d+)\]_(\d+) code: weights \((\d+), (\d+), (\d+)\) ")

# Lengths below 72 are settled by the published catalog, so the
# counterexample scan starts there and visits even lengths only.
SCAN_START = 72


def fixture_params(name: str) -> tuple[int, int, int, tuple[int, int, int]]:
    """(q, n, k, weights) encoded in a fixture file name."""
    m = FIXTURE_RE.match(name)
    if m is None:
        raise ValueError(f"unexpected fixture name {name!r}")
    q, n, k, w1, w2, w3 = (int(g) for g in m.groups())
    return q, n, k, (w1, w2, w3)


# -- linear algebra and codes --------------------------------------------


def gf_rank(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by Gaussian elimination on a copy."""
    mat = [[e % p for e in r] for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(e * inv) % p for e in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def projectivity(rows: list[list[int]], q: int) -> tuple[bool, int]:
    """(projective, number of zero columns) of a generator matrix."""
    seen = set()
    zero = 0
    repeated = False
    for col in zip(*rows):
        lead = next((e for e in col if e % q), 0)
        if not lead:
            zero += 1
            continue
        inv = pow(lead, q - 2, q)
        point = tuple((e * inv) % q for e in col)
        repeated |= point in seen
        seen.add(point)
    return zero == 0 and not repeated, zero


def dual_by_generating_function(counts: dict[int, int], n: int, q: int) -> list[int]:
    """q^k * B_i for i = 0..n, as the coefficients of

        sum_w A_w (1 + (q-1) z)^(n-w) (1 - z)^w

    built by Horner's rule in the length: S_m = (1 + (q-1) z) S_(m-1)
    + A_m (1 - z)^m.
    """
    acc = [counts.get(0, 0)]
    power = [1]  # (1 - z)^m
    for m in range(1, n + 1):
        nxt = [0] * (m + 1)
        for i, c in enumerate(acc):
            nxt[i] += c
            nxt[i + 1] += (q - 1) * c
        shifted = [0] * (m + 1)
        for i, c in enumerate(power):
            shifted[i] += c
            shifted[i + 1] -= c
        power = shifted
        a = counts.get(m, 0)
        if a:
            for i, c in enumerate(power):
                nxt[i] += a * c
        acc = nxt
    return acc


def check_weight_distribution(
    counts: dict[int, int], rows: list[list[int]], q: int
) -> str | None:
    """Moment and MacWilliams checks of a weight distribution against the
    generator matrix it came from; None when all hold."""
    k, n = len(rows), len(rows[0])
    size = q**k
    if counts.get(0) != 1:
        return f"A_0 = {counts.get(0)}, expected 1"
    if sum(counts.values()) != size:
        return f"sum of A_w = {sum(counts.values())}, expected q^k = {size}"
    nonzero_cols = sum(1 for col in zip(*rows) if any(e % q for e in col))
    first = sum(w * a for w, a in counts.items())
    if first != q ** (k - 1) * (q - 1) * nonzero_cols:
        return f"sum of w*A_w = {first}, expected {q ** (k - 1) * (q - 1) * nonzero_cols}"
    for i, v in enumerate(dual_by_generating_function(counts, n, q)):
        b, rem = divmod(v, size)
        if rem or b < 0:
            return f"dual B_{i} = {v}/{size} is not a nonnegative integer"
        if i == 0 and b != 1:
            return f"dual B_0 = {b}, expected 1"
    return None


# -- catalog ----------------------------------------------------------------


def _v2(m: int) -> int:
    return (m & -m).bit_length() - 1


def _triples(n: int, target: int):
    for w1 in range(1, n + 1):
        for w2 in range(w1 + 1, n + 1):
            w3 = target - w1 - w2
            if w2 < w3 <= n:
                yield w1, w2, w3


def admissibility_cases(q: int, lengths: range, skip_midpoint: bool = False) -> int:
    """Number of (n, weight triple, k) cases the admissibility conditions
    are evaluated on: k runs over 3..v2(w1 w2 w3)+2 for q = 2 and over
    1..n for q = 3."""
    total = 0
    for n in lengths:
        if (3 * n * (q - 1)) % q:
            continue
        for w1, w2, w3 in _triples(n, 3 * n * (q - 1) // q):
            if skip_midpoint and 2 * w2 == n:
                continue
            total += _v2(w1 * w2 * w3) if q == 2 else n
    return total


def scan_lengths(n_max: int) -> range:
    return range(SCAN_START, n_max + 1, 2)


def scan_expected(table3_text: str, n_max: int) -> list[dict]:
    return [row for row in json.loads(table3_text) if row["n"] <= n_max]


# -- coset graphs --------------------------------------------------------------


def check_verify_output(rc: int, text: str, name: str) -> str | None:
    q, n, k, weights = fixture_params(name)
    if rc != 0:
        return f"exit code {rc}"
    lines = text.splitlines()
    if not lines or lines[-1] != "PASS":
        return "no PASS line"
    m = VERIFY_HEAD_RE.match(lines[0])
    if m is None:
        return f"unexpected first line {lines[0]!r}"
    got_n, got_k, got_q, *got_w = (int(g) for g in m.groups())
    if (got_q, got_n, got_k, tuple(got_w)) != (q, n, k, weights):
        return f"reported [{got_n},{got_k}]_{got_q} weights {tuple(got_w)}"
    return None


def check_graph_output(rc: int, text: str, name: str, s: int) -> str | None:
    """Trace identities of the reported spectrum, and the closed walk count
    at 0 as the s-th spectral moment over the number of vertices."""
    q, n, k, _ = fixture_params(name)
    if rc != 0:
        return f"exit code {rc}"
    payload = json.loads(text)
    size, degree = q**k, n * (q - 1)
    if payload["vertices"] != size or payload["degree"] != degree:
        return f"graph has {payload['vertices']} vertices, degree {payload['degree']}"
    if payload["s"] != s or payload["is_s_swrg"] is not True:
        return f"not reported {s}-walk-regular"
    spectrum = [(int(theta), m) for theta, m in payload["eigenvalues"].items()]
    moments = [sum(m * theta**j for theta, m in spectrum) for j in (0, 1, 2, s)]
    if moments[:3] != [size, 0, size * degree]:
        return f"spectral moments 0..2 are {moments[:3]}"
    closed, rem = divmod(moments[3], size)
    walks = payload["walk_constants"]
    if rem or not walks or walks[0] != closed:
        return f"closed {s}-walks {walks and walks[0]}, spectrum gives {moments[3]}/{size}"
    return None


# -- curves ----------------------------------------------------------------------


def h(d: int, x: int, y: int, z: int) -> int:
    """Complete homogeneous polynomial of degree d in three variables, from
    h_m(x, y) = x h_(m-1)(x, y) + y^m and h_d = sum_i z^i h_(d-i)(x, y)."""
    hxy = [1]
    for m in range(1, d + 1):
        hxy.append(x * hxy[-1] + y**m)
    return sum(z**i * hxy[d - i] for i in range(d + 1))


def _normalized(p: tuple[int, int, int]) -> bool:
    lead = next((e for e in p if e), 0)
    return lead > 0 and gcd(gcd(p[0], p[1]), p[2]) == 1


def box_points(d: int, bound: int) -> list[list[int]]:
    """Every normalized projective point in the box [-bound, bound]^3 with
    h_d = 0, by exhaustive scan."""
    span = range(-bound, bound + 1)
    return sorted(
        [a, b, c]
        for a in span
        for b in span
        for c in span
        if _normalized((a, b, c)) and h(d, a, b, c) == 0
    )


def check_curve_output(rc: int, text: str, d: int, bound: int) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    payload = json.loads(text)
    if payload["d"] != d or payload["bound"] != bound:
        return f"echoed d={payload['d']} bound={payload['bound']}"
    points = [tuple(p) for p in payload["points"]]
    if len(set(points)) != len(points):
        return "duplicate points"
    for p in points:
        if len(p) != 3 or max(abs(e) for e in p) > bound or not _normalized(p):
            return f"point {p} is not a normalized point of the box"
        if h(d, *p) != 0:
            return f"h_{d}{p} = {h(d, *p)} != 0"
    return None


def box_cells(bound: int) -> int:
    """Triples a >= b >= c with a >= 1 and c <= min(b, 0) in the box: the
    fundamental domain the symmetry-reduced search walks."""
    return sum(
        min(b, 0) + bound + 1 for a in range(1, bound + 1) for b in range(-bound, a + 1)
    )

"""Independent second routes for the graph quantities of `threeweight.swrg`.

The library computes each quantity one way: the spectrum and the walk
counts from one exact character transform (Walsh over q = 2, the group ring
Z[C_q] over odd q), triple-sum counts as length-3 walk counts, translation
tables by base-q digit blocks, and the connection set from the canonical
column points that projectivity already computed.  The routes below share
none of that machinery and serve as test oracles.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from threeweight.code import LinearCode
from threeweight.swrg import CosetGraph, SwrgResult, decode_vector, encode_vector


def omega_from_code(code: LinearCode) -> tuple[tuple[int, ...], ...]:
    """Scalar closure of the generator columns, as vectors in F_q^k, by a
    pass over the columns themselves."""
    q = code.q
    omega = set()
    for col in code.generator.columns():
        for lam in range(1, q):
            omega.add(tuple((lam * e) % q for e in col))
    return tuple(sorted(omega))


def digitwise_add_table(w: int, q: int, k: int) -> list[int]:
    """table[h] = h + w, by decoding, adding digit-wise mod q and re-encoding."""
    wv = decode_vector(w, q, k)
    return [
        encode_vector([(a + b) % q for a, b in zip(decode_vector(h, q, k), wv)], q)
        for h in range(q**k)
    ]


def neighbors(graph: CosetGraph, v: int) -> list[int]:
    """The vertices v + w for w in Omega, by the digit-wise table of v."""
    table = digitwise_add_table(v, graph.q, graph.k)
    return sorted(table[w] for w in graph.omega)


def direct_adjacency(graph: CosetGraph) -> Callable[[list[int]], list[int]]:
    """vec -> (A vec)[h] = sum over w in Omega of vec[h - w], by direct
    convolution: h - w + w = h by xor over q = 2 and by digit-wise
    translation tables over odd q, built once per graph."""
    n = graph.nvertices
    if graph.q == 2:
        shifts = [[h ^ w for h in range(n)] for w in graph.omega]
    else:
        shifts = [digitwise_add_table(w, graph.q, graph.k) for w in graph.omega]

    def apply(vec: list[int]) -> list[int]:
        out = [0] * n
        for table in shifts:
            for hw, x in zip(table, vec):  # vec[h] lands on h + w
                out[hw] += x
        return out

    return apply


def direct_triple_counts(omega: Iterable[Sequence[int]], q: int, k: int) -> list[int]:
    """counts[h] = #{(x, y, z) in Omega^3 : x + y + z = h}, by the |Omega|^3 loop."""
    codes = sorted({encode_vector(tuple(e % q for e in v), q) for v in omega})
    counts = [0] * q**k
    if q == 2:
        for x in codes:
            for y in codes:
                xy = x ^ y
                for z in codes:
                    counts[xy ^ z] += 1
    else:
        shift = {w: digitwise_add_table(w, q, k) for w in codes}
        for x in codes:
            for y in codes:
                xy = shift[y][x]
                for z in codes:
                    counts[shift[z][xy]] += 1
    return counts


def spectrum_by_annihilator(graph: CosetGraph, eigenvalues: Sequence[int]) -> bool:
    """True iff the claimed values are exactly the distinct eigenvalues.

    The adjacency operator A is symmetric, so its minimal polynomial is the
    product of (x - theta) over its distinct eigenvalues.  The claim is
    right iff that product over the claimed values annihilates A, and no
    product with one value left out does.  A polynomial in A commutes with
    translations, so it vanishes iff it sends the basis vector at 0 to 0.
    """

    adjacency = direct_adjacency(graph)

    def annihilates(thetas: Sequence[int]) -> bool:
        vec = [0] * graph.nvertices
        vec[0] = 1
        for theta in thetas:
            applied = adjacency(vec)
            vec = [a - theta * b for a, b in zip(applied, vec)]
        return not any(vec)

    ev = tuple(eigenvalues)
    return annihilates(ev) and not any(
        annihilates(ev[:i] + ev[i + 1:]) for i in range(len(ev))
    )


def walk_class_constants_dense(adjacency: list[set[int]], s: int) -> SwrgResult:
    """Walk constants on an explicit adjacency structure: dense integer
    matrix power, no group structure assumed.  For small graphs and
    cross-checks (e.g. invariance under vertex relabeling)."""
    n = len(adjacency)
    mat = [[1 if j in adjacency[i] else 0 for j in range(n)] for i in range(n)]
    power = [row[:] for row in mat]
    for _ in range(s - 1):
        power = [
            [sum(row[t] * mat[t][j] for t in range(n)) for j in range(n)]
            for row in power
        ]
    equal = {power[i][i] for i in range(n)}
    adj = {power[i][j] for i in range(n) for j in adjacency[i]}
    non = {
        power[i][j]
        for i in range(n)
        for j in range(n)
        if i != j and j not in adjacency[i]
    }
    if len(equal) > 1 or len(adj) > 1 or len(non) > 1:
        return SwrgResult(False, s, None)
    return SwrgResult(True, s, (equal.pop(), adj.pop() if adj else 0, non.pop() if non else 0))

"""Independent second routes for the graph quantities of `threeweight.swrg`.

The library reads the spectrum from the weight distribution, decides walk
regularity on the distinct eigenvalues, reads triple-sum counts as length-3
walk constants, lists neighbour rows from digit-block addition tables of
half the digits, and reads the connection set as the numerals of the
columns' multiples, all columns in one lane pass.  The routes below share
none of that machinery and serve as test oracles: a vector encoded digit
by digit, the claimed distinct eigenvalues n(q-1) - q w read off a weight
list, the spectrum and every walk count from one exact character transform
over all q^k vertices (Walsh over q = 2, the group ring Z[C_q] over odd q),
the walk classes split vertex by vertex, direct convolution, direct
|Omega|^3 counting and a dense matrix power.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from operator import add, not_, sub
from typing import Callable, Iterable, NamedTuple, Sequence

from threeweight.code import LinearCode
from threeweight.errors import InvalidArgument, SelfCheckFailed
from threeweight.swrg import CosetGraph, SwrgResult

from code_oracles import columns


def encode_vector(vec: Sequence[int], q: int) -> int:
    """The base-q numeral of vec, first entry the lowest digit, by Horner's
    rule one entry at a time."""
    code = 0
    for digit in reversed(vec):
        code = code * q + digit % q
    return code


def decode_vector(code: int, q: int, k: int) -> tuple[int, ...]:
    """The k base-q digits of code, lowest first, one remainder at a time."""
    out = []
    for _ in range(k):
        out.append(code % q)
        code //= q
    return tuple(out)


def closure_numerals(q: int, points: Iterable[Sequence[int]]) -> list[int]:
    """The numerals of every nonzero multiple of every point, each encoded
    entry by entry: a connection set closed under scalars, as `CosetGraph`
    takes it."""
    return [encode_vector([lam * e for e in v], q) for v in points for lam in range(1, q)]


def omega_from_code(code: LinearCode) -> tuple[tuple[int, ...], ...]:
    """Scalar closure of the generator columns, as vectors in F_q^k, by a
    pass over the columns themselves."""
    q = code.q
    omega = set()
    for col in columns(code.generator):
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


def eigenvalues_from_weights(q: int, n: int, weights: Iterable[int]) -> tuple[int, ...]:
    """The claimed distinct eigenvalues theta_i = n(q-1) - q*w_i,
    descending, so the degree comes first; weights must include 0."""
    ws = tuple(weights)
    if len(set(ws)) != len(ws):
        raise InvalidArgument(f"weights must be distinct, got {ws}")
    if 0 not in ws:
        raise InvalidArgument("weight list must include w_0 = 0")
    return tuple(sorted((n * (q - 1) - q * w for w in ws), reverse=True))


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


# -- the character transform over all q^k vertices ------------------------------


def _character_transform(planes: list[list[int]], q: int, k: int, sign: int = 1) -> list[list[int]]:
    """sum_h x[h] zeta^(sign <u, h>) for every u in F_q^k, x[h] = sum_c
    planes[c][h] zeta^c (missing planes are zero).  For q = 2, zeta = -1 and
    this is the Walsh transform; for odd q a product with zeta^r rotates the
    planes of Z[C_q].  Each pass transforms the top base-q digit and moves
    it to the bottom, so k passes put every digit back in place."""
    if q == 2:
        return [_walsh_transform(planes[0])]
    n = q**k
    m = n // q
    planes = planes + [[0] * n] * (q - len(planes))
    for _ in range(k):
        blocks = [[plane[j * m:(j + 1) * m] for j in range(q)] for plane in planes]
        planes = [[0] * n for _ in range(q)]
        for r in range(q):
            for c in range(q):  # the coefficient of zeta^c in sum_j zeta^(sign r j) x_j
                terms = [blocks[(c - sign * r * j) % q][j] for j in range(q)]
                planes[c][r::q] = map(sum, zip(*terms))
    return planes


def _character_sums(planes: list[list[int]], q: int, k: int, inverse: bool = False) -> list[int]:
    """The character transform, or its inverse with the factor q^-k, in
    integers: an entry v of Z[C_q] is the integer v[0] - v[1] exactly when
    v[1] = ... = v[q-1]; any other entry, or a remainder mod q^k, raises."""
    out = _character_transform(planes, q, k, -1 if inverse else 1)
    if any(plane != out[1] for plane in out[2:]):
        raise SelfCheckFailed("a character sum is not an integer")
    sums = out[0] if q == 2 else list(map(sub, out[0], out[1]))
    if not inverse:
        return sums
    size = q**k
    if any(x % size for x in sums):
        raise SelfCheckFailed(f"a character sum is not a multiple of q^k = {size}")
    return [x // size for x in sums]


def _walsh_transform(vec: list[int]) -> list[int]:
    out = list(vec)
    half = len(out) // 2
    for _ in range(half.bit_length()):
        lo, hi = out[:half], out[half:]
        out[0::2] = map(add, lo, hi)
        out[1::2] = map(sub, lo, hi)
    return out


def indicator(graph: CosetGraph) -> list[int]:
    """1 at the vertices adjacent to 0."""
    omega = set(graph.omega)
    return [1 if h in omega else 0 for h in range(graph.nvertices)]


def character_spectrum(graph: CosetGraph) -> list[int]:
    """lambda_u for every character u: the transform of the indicator of Omega."""
    return _character_sums([indicator(graph)], graph.q, graph.k)


def cayley_graph(q: int, k: int, points: Iterable[Sequence[int]]) -> CosetGraph:
    """The Cayley graph of the scalar closure of the points, with its
    spectrum from the character transform of the closure's indicator: any
    point set, spanning or not."""
    omega = set(closure_numerals(q, points))
    plane = [int(h in omega) for h in range(q**k)]
    return CosetGraph(q, k, omega, Counter(_character_sums([plane], q, k)))


def walk_counts(graph: CosetGraph, s: int) -> list[int]:
    """Number of length-s walks from 0 to each vertex, exactly, as the
    inverse transform of lambda^s."""
    powers = [x**s for x in character_spectrum(graph)]
    return _character_sums([powers], graph.q, graph.k, inverse=True)


class WalkVerdict(NamedTuple):
    is_swrg: bool
    constants: tuple[int, int, int] | None  # (equal, adjacent, non-adjacent)
    witness: tuple[int, int] | None  # two group elements, same class, different counts


def walk_regularity(graph: CosetGraph, s: int) -> WalkVerdict:
    """The walk-regularity verdict from the walk counts, class by class.  An
    empty class has the constant 0; a class that is not constant gives the
    witness pair (its first element with the least count, its first with
    the greatest)."""
    counts = walk_counts(graph, s)
    inside = indicator(graph)
    outside = list(map(not_, inside))
    outside[0] = False  # vertex 0 is the class "equal"
    constants = [counts[0]]
    for selector in (inside, outside):
        vals = list(compress(counts, selector))
        lo, hi = min(vals, default=0), max(vals, default=0)
        if lo != hi:
            cls = list(compress(range(graph.nvertices), selector))
            return WalkVerdict(False, None, (cls[vals.index(lo)], cls[vals.index(hi)]))
        constants.append(lo)
    return WalkVerdict(True, tuple(constants), None)

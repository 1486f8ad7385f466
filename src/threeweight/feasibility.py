"""Feasibility engine for projective three-weight codes whose weights sum
to 3n(q-1)/q.

Candidates are weight triples plus a dimension; admissibility means:

  (i)   1 <= w1 < w2 < w3 <= n and w1 + w2 + w3 = 3n(q-1)/q,
  (ii)  gcd(w1, w2, w3) divides q^(k-1)  (a divisible full-length code is a
        repetition otherwise, which projectivity forbids),
  (iii) 2^(k-2) | w1*w2*w3 for q = 2, or 1 <= k <= n for q = 3,
  (iv)  the forced frequencies A_wi are positive integers and the dual
        distribution B_0..B_n consists of nonnegative integers,
  (v)   B_1 = B_2 = 0.

length_candidates decides (i)-(v) for every case of one length at once and
is what the enumeration and the counterexample scan run; it decides (iv) at
B_3 before the full dual test.  It starts k at the Hamming floor, the least
k with q^k >= 1 + n(q-1): the sphere-packing bound on the dual, which
follows from the Delsarte LP (Delsarte 1973) and below which (iv) and (v)
admit nothing.  Its caller passes it the length's triples, and they alone
decide which triples the length gets.  They come from the triples module:
for q = 2 only those whose cap on k from (iii) reaches the floor, listed by
2-adic residue classes of n/2 across a whole range of lengths
(binary_triples, which the enumeration and the scan each run once per
range; the scan's lists leave out w2 = n/2), and for q = 3 a window of w2
per w1 (ternary_triples), with k capped once per length by the covering
bound q^k <= V(n, 3).  The dual test (transform.dual_sequence_exact)
computes only a few lanes of B_0..B_n, by three facts derived in its
docstring: integrality from the binomial moments q^(k-nu) | T_nu, positive
signs on one interval of middle lanes from Krawtchouk orthogonality and
Cauchy-Schwarz, and the lanes outside that interval from short columns.
evaluate_candidate is a view of the kernel for one case; the per-case
route the kernel is tested against is a test oracle (tests/catalog.py).
Survivors then run a chain of exclusion filters (length divisibility, the
4*Delta dimension bound, the two-level divisibility test on T, and a
sphere-packing check on short anticodes).  Each filter returns its
exclusion reason, or None when it passes or does not apply.  Survivors
finally pick up static annotations for facts that rest on external tables
or exhaustive classification runs.

`Candidate`, `Annotation` and `KnWitness` are `NamedTuple`s: immutable (a
stage returns a `_replace` copy), iterable, and equal to the plain tuple
of their fields.
"""

from __future__ import annotations

import json
from importlib import resources
from math import comb, gcd
from typing import Iterable, Iterator, NamedTuple

from .code import LinearCode, golay23, parity_check_code, reed_muller, simplex
from .errors import GuardExceeded, InvalidArgument, SelfCheckFailed
from .transform import dual_sequence_exact, krawtchouk_column
from .transform import three_weight_solve  # read by perfbench/test_perfbench.py
from .triples import binary_triples, ternary_triples

N_GUARD = 1024  # both fields
SCAN_GUARD = 8192
ANTICODE_HAMMING_LIMIT = 512


class Annotation(NamedTuple):
    source: str  # codetables | jaffe1997 | exhaustive-LinCode | constructed-example
    verdict: str  # realized | excluded | unlisted


class Candidate(NamedTuple):
    """One admissibility record for parameters (q, n, k, w1, w2, w3)."""

    q: int
    n: int
    k: int
    weights: tuple[int, int, int]
    frequencies: tuple[int, int, int]
    b3: int  # B_3 of the dual distribution; B_1 = B_2 = 0 by condition (v)
    delta: int
    verdict: str = "admissible"
    exclusions: tuple[str, ...] = ()  # "<filter>: <reason>" per failing filter
    annotation: Annotation | None = None

    @property
    def a(self) -> int:
        """Largest e with 2^e | gcd of the weights (binary divisibility)."""
        return _v2(self.delta)

    @property
    def y(self) -> int | None:
        return 1 << (self.k - 2) if self.q == 2 else None

    def reasons(self) -> list[str]:
        out = list(self.exclusions)
        if self.annotation is not None and self.annotation.verdict == "excluded":
            out.append(f"annotation:{self.annotation.source}")
        return out

    def sort_key(self) -> tuple[int, int, int, int, int]:
        w1, _, w3 = self.weights
        return (self.q, self.n, w3 - w1, w1, self.k)

    def row(self) -> dict:
        w1, w2, w3 = self.weights
        a1, a2, a3 = self.frequencies
        return {
            "q": self.q,
            "n": self.n,
            "k": self.k,
            "w1": w1,
            "w2": w2,
            "w3": w3,
            "A1": a1,
            "A2": a2,
            "A3": a3,
            "B3": self.b3,
            "verdict": self.verdict,
            "reasons": self.reasons(),
        }


def _v2(m: int) -> int:
    if m <= 0:
        return 0
    return (m & -m).bit_length() - 1


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and m & (m - 1) == 0


def weight_triples(q: int, n: int) -> list[tuple[int, int, int]]:
    """All 1 <= w1 < w2 < w3 <= n with w1 + w2 + w3 = 3n(q-1)/q, sorted by
    (w1, w2): condition (i).  length_candidates visits those its triples
    lists (the window of w2 and, for q = 2, the cap at the floor) in the
    same order."""
    if not (isinstance(q, int) and isinstance(n, int)):
        raise InvalidArgument(f"weight triples need an int field order and length, not q = {q!r}, n = {n!r}")
    if (3 * n * (q - 1)) % q != 0:
        return []
    target = 3 * n * (q - 1) // q
    out = []
    for w1 in range(1, target // 3 + 1):
        for w2 in range(w1 + 1, (target - w1 + 1) // 2):
            w3 = target - w1 - w2
            if w2 < w3 <= n:
                out.append((w1, w2, w3))
    return out


def evaluate_candidate(q: int, n: int, k: int, weights: tuple[int, int, int]) -> Candidate | None:
    """Conditions (i)-(v) on one case: the admissible Candidate or None.  It
    checks (i), which length_candidates assumes, and views that kernel."""
    if not (all(isinstance(v, int) for v in (q, n, k, *weights)) and q in (2, 3)):
        raise InvalidArgument(f"a candidate needs q in {{2, 3}} and an int n, k and weights, not {(q, n, k, weights)!r}")
    w1, w2, w3 = weights
    if not (1 <= w1 < w2 < w3 <= n) or (w1 + w2 + w3) * q != 3 * n * (q - 1):
        return None  # condition (i)
    return next((c for c in length_candidates(q, n, [weights]) if c.k == k), None)


def hamming_floor(q: int, n: int) -> int:
    """The least k with q^k >= 1 + n(q-1): no admissible case of length n
    has a smaller dimension (the bound is derived in length_candidates)."""
    if not (isinstance(q, int) and isinstance(n, int)) or q not in (2, 3) or n < 0:
        raise InvalidArgument(f"the Hamming floor needs q in {{2, 3}} and an int n >= 0, not q = {q!r}, n = {n!r}")
    k = 1
    while q**k <= n * (q - 1):
        k += 1
    return k


def _covering_cap(q: int, n: int) -> int:
    """The largest k with q^k <= V(n, 3) (derived in length_candidates)."""
    v = sum(comb(n, i) * (q - 1) ** i for i in range(4))
    return next(k for k in range(n + 1) if q ** (k + 1) > v)


def length_candidates(q: int, n: int, triples: Iterable[tuple[int, int, int]]) -> Iterator[Candidate]:
    """Every admissible Candidate of length n among triples, in their order
    with k ascending: the one route to conditions (ii)-(v), which
    enumerate_candidates and counterexample_scan run and evaluate_candidate
    views one case at a time.  triples is the length's list from the
    triples module (binary_triples, which the two binary routes stream over
    their range of lengths, or ternary_triples), in weight_triples order; it
    alone decides which triples the length gets.

    With x_w = K_1(w) = n(q-1) - qw, the moments sum A = q^k - 1 and
    B_1 = B_2 = 0 give each frequency in Lagrange form,

        A_j (w_j - w_a)(w_j - w_b) = q^(k-2) (n(q-1) + x_a x_b) - w_a w_b,

    the formula of transform.solve_three_weight_general, inlined here per
    triple.  The weights sum to 3n(q-1)/q, so x_1 + x_2 + x_3 = 0 and
    x_1 > 0 > x_3.  Whatever k is, A_1 and A_3 can then be positive only
    where n(q-1) + x_2 x_3 > 0 and n(q-1) + x_1 x_2 > 0: for each w1 one
    window of w2 around the midpoint n(q-1)/q, and the triples outside it
    are never listed.  Per triple, conditions (ii) and (iii) become one
    interval of k: a gcd q^e of the weights gives k >= e + 1, for q = 2,
    2^(k-2) | w1 w2 w3 caps k, and for q = 3 one cap per length does:
    q^k <= V(n, 3) = sum_(i <= 3) C(n, i) (q-1)^i.  C has three nonzero
    weights, so C^perp has covering radius at most 3 (P. Delsarte, "Four
    fundamental parameters of a code and their combinatorial significance",
    Inform. Control 23, 1973): each of the q^k cosets of C^perp has a leader
    of weight at most 3.  This is a theorem about codes, not a consequence
    of (i)-(v); the tests lift the cap to (iii)'s k <= n and show that it
    cuts no admissible case.

    The interval starts no lower than the Hamming floor k_lo, the least k
    with q^k >= 1 + n(q-1): the sphere-packing bound on the dual, which
    follows from the Delsarte LP (P. Delsarte, "An algebraic approach to the
    association schemes of coding theory", 1973).  With L(w) = K_0(w) +
    K_1(w) = 1 + n(q-1) - qw, the product K_1^2 = n(q-1) K_0 + (q-2) K_1 +
    2 K_2 gives L^2 = (1 + n(q-1)) K_0 + q K_1 + 2 K_2, and summing it
    against the A_w (A_0 = 1),

        q^k ((1 + n(q-1)) B_0 + q B_1 + 2 B_2) = sum_w A_w L(w)^2.

    With B_0 = 1, B_1 = B_2 = 0 and every A_w >= 0, the right side is at
    least A_0 L(0)^2 = (1 + n(q-1))^2, so q^k >= 1 + n(q-1): below the
    floor no k has all three frequencies positive, and cutting there
    changes no output.  Wherever a triple exists, k_lo >= 3 for q = 2 and
    k_lo >= 2 for q = 3, so k needs no other lower bound.  For q = 2 the cap
    is known from w1 w2 w3 alone, and binary_triples lists only the triples
    whose cap reaches k_lo, by residue classes of n/2 (derived in the
    triples module), so no other triple reaches a gcd.
    Per k, q^(k-2) is stepped and each frequency is one divmod.  Once all
    three are positive integers, q^k B_3 = K_3(0) + sum_j A_j K_3(w_j), the
    K_3 values read from transform.krawtchouk_column once per triple,
    rejects a fractional or negative B_3 before the dual test.  B_0 = 1 and
    B_1 = B_2 = 0 hold by construction of the frequencies, and B_3 is known,
    so a dual test that admits the case with any other B_0..B_3 raises.
    """
    if not isinstance(q, int) or q not in (2, 3):
        raise InvalidArgument("the kernel supports q in {2, 3}")
    if not isinstance(n, int) or n < 0:
        raise InvalidArgument(f"the length {n!r} must be an int >= 0")
    s = q - 1
    if 3 * n * s % q:
        return
    ns = n * s
    k_lo = hamming_floor(q, n)
    k_max = _covering_cap(q, n) if q == 3 else None  # once per length; q = 2 caps per triple
    for weights in triples:
        w1, w2, w3 = weights
        if q == 2:
            prod = w1 * w2 * w3
            k_max = (prod & -prod).bit_length() + 1  # condition (iii), at least k_lo here
        delta = gcd(w1, w2, w3)
        # condition (ii): delta = q^e, so k >= e + 1
        e, rest = 0, delta
        while rest % q == 0:
            rest //= q
            e += 1
        if rest != 1:
            continue
        k = max(e + 1, k_lo)
        if k > k_max:
            continue
        x1, x2 = ns - q * w1, ns - q * w2
        x3 = -x1 - x2
        p1, p2, p3 = ns + x2 * x3, ns + x1 * x3, ns + x1 * x2
        # solve_three_weight_general, with d_2 and A_2's numerator negated so all d_j > 0
        d1, d2, d3 = (w2 - w1) * (w3 - w1), (w2 - w1) * (w3 - w2), (w3 - w1) * (w3 - w2)
        k3 = None  # K_3 at 0, w1, w2, w3, computed once a k reaches B_3
        y = q ** (k - 2)
        while k <= k_max:
            a2, rem = divmod(w1 * w3 - y * p2, d2)
            if a2 <= 0 and p2 > 0:
                break  # A_2 only falls as k grows
            if not rem and a2 > 0:
                a1, rem = divmod(y * p1 - w2 * w3, d1)
                if not rem and a1 > 0:
                    a3, rem = divmod(y * p3 - w1 * w2, d3)
                    if not rem and a3 > 0:
                        freqs = (a1, a2, a3)
                        k3 = k3 or [krawtchouk_column(x, n, q, 3)[3] for x in (0, *weights)]
                        b3, rem = divmod(k3[0] + a1 * k3[1] + a2 * k3[2] + a3 * k3[3], q * q * y)
                        # condition (iv) at B_3, then on all of B_0..B_n; then (v)
                        b_seq = not rem and b3 >= 0 and dual_sequence_exact(q, n, k, weights, freqs)
                        if b_seq:
                            if b_seq != (1, 0, 0, b3):
                                raise SelfCheckFailed(
                                    f"B_0..B_3 = {b_seq} of the dual distribution, not (1, 0, 0, {b3}) "
                                    f"from the frequencies and K_3, for q={q}, n={n}, k={k}, weights={weights}"
                                )
                            yield Candidate(q, n, k, weights, freqs, b3, delta)
            y *= q
            k += 1


def enumerate_candidates(q: int, n_min: int, n_max: int) -> list[Candidate]:
    """Admissible candidates for every length in [n_min, n_max]."""
    if not (isinstance(n_min, int) and isinstance(n_max, int)):
        raise InvalidArgument(f"lengths {n_min!r} and {n_max!r} must be ints")
    if q not in (2, 3):
        raise InvalidArgument("enumeration supports q in {2, 3}")
    if n_max >= N_GUARD:
        raise GuardExceeded(f"q={q} enumeration is guarded at n < {N_GUARD}")
    lengths = binary_triples(n_min, n_max) if q == 2 else ((n, ternary_triples(n)) for n in range(max(n_min, 1), n_max + 1))
    out = [c for n, triples in lengths for c in length_candidates(q, n, triples)]
    out.sort(key=Candidate.sort_key)
    return out


# -- the two-level divisibility test ------------------------------------


def dodunekov_check(candidate: Candidate, a: int) -> str | None:
    """Divisibility test on T = sum of frequencies at weights divisible by
    2^(a+1), for a binary code with all weights divisible by 2^a.

    Checks the divisibility clause and the two structural forms of T with
    their t-ranges; returns "part (i|ii|iii), ..." for the first clause the
    frequencies violate, or None when they satisfy all three.
    """
    if candidate.q != 2 or a < 0:
        raise InvalidArgument(f"the divisibility test needs q = 2 and a >= 0, not q = {candidate.q}, a = {a}")
    k = candidate.k
    delta = 1 << a
    if any(w % delta for w in candidate.weights):
        raise InvalidArgument(f"weights {candidate.weights} are not all divisible by 2^{a}")
    step = 2 * delta
    # the zero word has weight 0, divisible by every 2^(a+1)
    t_sum = 1 + sum(aw for w, aw in zip(candidate.weights, candidate.frequencies) if w % step == 0)
    alpha = min(k - a - 1, a + 1)
    beta = (k - a + 1) // 2
    tmax = max(alpha, beta)

    div = 1 << ((k - 1) // (a + 1))
    if t_sum % div != 0:
        return f"part (i), T={t_sum} not divisible by {div} (a={a})"

    if t_sum < 1 << (k - a):
        diff = (1 << (k - a)) - t_sum
        if not _is_power_of_two(diff):
            return f"part (ii), a={a}: 2^(k-a)-T = {diff} is not a power of 2"
        t = (k - a) - diff.bit_length() + 1
        if not (1 <= t <= tmax):
            return f"part (ii), a={a}: t={t} outside 1..max(alpha,beta)={tmax}"
    if t_sum > (1 << k) - (1 << (k - a)):
        diff = t_sum - ((1 << k) - (1 << (k - a)))
        if not _is_power_of_two(diff):
            return f"part (iii), a={a}: T-2^k+2^(k-a) = {diff} is not a power of 2"
        t = (k - a) - diff.bit_length() + 1
        if not (0 <= t <= tmax):
            return f"part (iii), a={a}: t={t} outside 0..max(alpha,beta)={tmax}"
    return None


def hamming_bound_ok(n: int, k: int, d: int, q: int) -> bool:
    """Sphere-packing feasibility: q^k * V_q(n, r) <= q^n, r = (d-1)//2.

    V = sum_{j <= r} C(n, j) (q-1)^j is an integer, so the bound holds
    exactly when V <= room = q^n // q^k.  The term ratio (n-j)(q-1)/(j+1) is
    at least 1 for j < r, as 2r <= n - 1 gives r <= (n-r+1)(q-1), so the
    last term T = C(n, r) (q-1)^r is the largest and T <= V <= (r+1) T.
    T > room fails and (r+1) T <= room holds; only a room between them
    needs the whole sum.
    """
    if not (isinstance(n, int) and isinstance(k, int) and isinstance(d, int)) or k < 0:
        raise InvalidArgument(f"the sphere-packing test needs an int n, d and k >= 0, not {(n, k, d)!r}")
    if not isinstance(q, int) or q not in (2, 3):
        raise InvalidArgument(f"the sphere-packing test supports q in {{2, 3}}, not q = {q!r}")
    if not (1 <= d <= n):
        raise InvalidArgument("need 1 <= d <= n")
    r, room = (d - 1) // 2, q**n // q**k
    top = comb(n, r) * (q - 1) ** r
    if top > room or (r + 1) * top <= room:
        return top <= room
    return sum(comb(n, j) * (q - 1) ** j for j in range(r + 1)) <= room


# -- the filter chain ----------------------------------------------------


def _filter_length_mod_4(c: Candidate) -> str | None:
    if c.q == 2 and c.n % 4 != 0:
        return f"n = {c.n} is not a multiple of 4"
    return None


def _filter_four_delta_dimension(c: Candidate) -> str | None:
    w1, w2, w3 = c.weights
    if c.q != 2 or (w2, w3) != (2 * w1, 3 * w1) or not _is_power_of_two(w1):
        return None  # needs weights (D, 2D, 3D) with D = 2^a
    a = _v2(w1)
    if a >= 3 and 3 * w1 <= c.n <= 4 * w1 and c.k > 2 * a + 3:
        return f"k = {c.k} exceeds 2a+3 = {2 * a + 3}"
    return None


def dodunekov_levels(a_max: int) -> list[int]:
    """Divisibility levels at which the exclusion chain applies the test.

    The catalog this package reproduces treats several parameter sets that
    the a = 2 instance of the test would rule out as open problems, so the
    chain runs the test at a = 0, 1 and at every level >= 3 only.  The
    a = 2 instance stays available through dodunekov_check directly.
    """
    if not isinstance(a_max, int):
        raise InvalidArgument(f"divisibility levels need an int a, not {a_max!r}")
    return [a for a in range(a_max + 1) if a != 2]


def _filter_dodunekov_simonis(c: Candidate) -> str | None:
    if c.q != 2:
        return None
    checks = (dodunekov_check(c, a) for a in dodunekov_levels(c.a))
    return next((why for why in checks if why is not None), None)


def _filter_hamming_anticode(c: Candidate) -> str | None:
    qk1 = c.q ** (c.k - 1)
    w3 = c.weights[2]
    if w3 > qk1:
        return f"w3 = {w3} exceeds q^(k-1) = {qk1}"
    n_anti = (c.q**c.k - 1) // (c.q - 1) - c.n
    if w3 == qk1 or n_anti < 1 or n_anti > ANTICODE_HAMMING_LIMIT:
        return None  # the complement does not span, or the anticode is not short
    d_anti = qk1 - w3
    if not hamming_bound_ok(n_anti, c.k, d_anti, c.q):
        return f"anticode [{n_anti},{c.k},{d_anti}] violates the sphere-packing bound"
    if n_anti >= 2 and d_anti >= 2 and not hamming_bound_ok(n_anti - 1, c.k, d_anti - 1, c.q):
        return (
            f"punctured anticode [{n_anti - 1},{c.k},{d_anti - 1}] violates the "
            "sphere-packing bound"
        )
    return None


_FILTERS = {
    "length-mod-4": _filter_length_mod_4,
    "four-delta-dimension": _filter_four_delta_dimension,
    "dodunekov-simonis": _filter_dodunekov_simonis,
    "hamming-anticode": _filter_hamming_anticode,
}


def apply_filters(candidate: Candidate) -> Candidate:
    """Run every exclusion filter; each is a pure function of the candidate,
    and the verdict is "excluded" when any of them fails."""
    found = ((name, check(candidate)) for name, check in _FILTERS.items())
    exclusions = tuple(f"{name}: {why}" for name, why in found if why is not None)
    verdict = "excluded" if exclusions else candidate.verdict
    return candidate._replace(exclusions=exclusions, verdict=verdict)


# -- static annotations --------------------------------------------------


def load_annotations() -> dict[tuple[int, int, int, tuple[int, int, int]], Annotation]:
    raw = json.loads(
        resources.files("threeweight").joinpath("data/annotations.json").read_text("utf-8")
    )
    out = {}
    for e in raw["entries"]:
        key = (e["q"], e["n"], e["k"], tuple(e["w"]))
        out[key] = Annotation(e["source"], e["verdict"])
    return out


def merge_annotations(candidates: list[Candidate]) -> list[Candidate]:
    """Attach static annotations; they refine 'admissible' into realized or
    excluded but never override an arithmetic exclusion.  Rows annotated
    'unlisted' are candidates the published catalog omits; they keep their
    arithmetic verdict and are dropped from default reports."""
    table = load_annotations()
    out = []
    for c in candidates:
        ann = table.get((c.q, c.n, c.k, c.weights))
        verdict = (
            c.verdict if c.verdict == "excluded" or ann is not None and ann.verdict == "unlisted"
            else "open" if ann is None else ann.verdict
        )
        out.append(c._replace(annotation=ann, verdict=verdict))
    return out


def feasibility_report(q: int, n_min: int, n_max: int, include_unlisted: bool = False) -> list[Candidate]:
    """Full pipeline: conditions, filters, annotations.

    By default the report mirrors the published catalog, which omits a few
    arithmetically admissible rows (one binary row that its own divisibility
    filter rules out, and the ternary rows with length not divisible by 3
    that fall outside the catalog's scan grid).  Pass include_unlisted=True
    for the complete candidate list.
    """
    merged = merge_annotations([apply_filters(c) for c in enumerate_candidates(q, n_min, n_max)])
    if include_unlisted:
        return merged
    return [c for c in merged if c.annotation is None or c.annotation.verdict != "unlisted"]


# -- the counterexample scan ---------------------------------------------


SCAN_START = 72  # lengths below 72 are fully resolved by the catalog


def counterexample_scan(n_max: int) -> list[Candidate]:
    """Binary candidates with w2 != n/2 surviving conditions (i)-(v) plus
    the two-level divisibility test at every applicable level; these are the
    potential counterexamples to the midpoint conjecture.

    The scan covers the unresolved lengths 72..n_max (below 72 the midpoint
    property is known to hold, so the scan is empty there by construction).
    """
    if not isinstance(n_max, int):
        raise InvalidArgument(f"the scan bound {n_max!r} must be an int")
    if n_max >= SCAN_GUARD:
        raise GuardExceeded(f"scan is guarded at n < {SCAN_GUARD}")
    out = []
    for n, triples in binary_triples(SCAN_START, n_max, midpoint=False):
        for cand in length_candidates(2, n, triples):
            if all(dodunekov_check(cand, a) is None for a in range(cand.a + 1)):
                out.append(cand._replace(verdict="open"))
    out.sort(key=Candidate.sort_key)
    return out


# -- extremal divisibility witnesses --------------------------------------


class KnWitness(NamedTuple):
    """Witness code for the largest dimension/length without 2^a-divisibility."""

    a: int
    k_value: int
    n_value: int
    k_bounds: tuple[int, int]
    n_bounds: tuple[int, int]
    witness: LinearCode


def kn_witness(a: int) -> KnWitness:
    """Extremal witnesses: a=1 the [4,3] code, a=2 the [56,6] anticode of
    the length-7 parity-check code, a=3 the [2024,11] anticode of the
    even-weight subcode of the length-23 Golay code."""
    if not isinstance(a, int):
        raise InvalidArgument(f"witnesses are available for an int a in {{1, 2, 3}}, not {a!r}")
    if a == 1:
        witness = simplex(2, 1).direct_sum(reed_muller(2, 2)).anticode()
        k_value, n_value = 3, 4
    elif a == 2:
        witness = parity_check_code(7).anticode()
        k_value, n_value = 6, 56
    elif a == 3:
        witness = golay23().even_weight_subcode().anticode()
        k_value, n_value = 11, 2024
    else:
        raise InvalidArgument("witnesses are available for a in {1, 2, 3}")
    if (witness.k, witness.n) != (k_value, n_value):
        raise SelfCheckFailed(
            f"a={a} witness is [{witness.n},{witness.k}], expected [{n_value},{k_value}]"
        )
    ws = witness.weight_distribution().nonzero_weights()
    if len(ws) != 3:
        raise SelfCheckFailed(f"a={a} witness has weights {ws}, expected three")
    if sum(ws) * 2 != 3 * witness.n or ws[1] * 2 != witness.n:
        raise SelfCheckFailed(f"a={a} witness weights {ws} miss 3n/2 or the midpoint n/2")
    if gcd(*ws) % (1 << a) == 0:
        raise SelfCheckFailed(f"a={a} witness weights {ws} are 2^{a}-divisible")
    return KnWitness(
        a,
        k_value,
        n_value,
        (2 * a + 1, 8 * a + 1),
        (2 ** (2 * a + 1) - 2 ** (a + 1), 2**k_value - 3),
        witness,
    )

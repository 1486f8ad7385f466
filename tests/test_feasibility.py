from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction
from math import comb, gcd

import pytest

from threeweight import feasibility
from threeweight.code import parity_check_code
from threeweight.errors import CodesError, GuardExceeded, InvalidArgument, SelfCheckFailed
from threeweight.feasibility import (
    ANTICODE_HAMMING_LIMIT,
    N_GUARD,
    SCAN_GUARD,
    Candidate,
    apply_filters,
    counterexample_scan,
    dodunekov_check,
    dodunekov_levels,
    dual_sequence_exact,
    enumerate_candidates,
    evaluate_candidate,
    feasibility_report,
    hamming_bound_ok,
    hamming_floor,
    kn_witness,
    length_candidates,
    load_annotations,
    merge_annotations,
    weight_triples,
)
from threeweight import transform
from threeweight.transform import dual_numerators, three_weight_solve

import catalog
from catalog import (
    SCAN,
    dimension_range,
    filter_divisibility_dimension,
    filter_gap_power_of_2,
    midpoint_gap,
    reference_candidate,
)
from kernel_triples import length_triples
from transform_oracles import DualLanes, closed_form_solve, dual_sequence, krawtchouk, packed_dual_sequence


def _candidate(n, k, w):
    c = evaluate_candidate(2, n, k, w)
    assert c is not None
    return c


def test_weight_triples_sum_condition():
    for w in weight_triples(2, 24):
        assert sum(w) == 36 and w[0] < w[1] < w[2] <= 24
    assert weight_triples(2, 5) == []  # odd length, no integral target
    assert (1, 2, 3) in weight_triples(3, 3)


def test_enumerate_smallest_binary_length():
    cands = enumerate_candidates(2, 4, 4)
    assert len(cands) == 1
    c = cands[0]
    assert (c.n, c.k, c.weights, c.frequencies) == (4, 3, (1, 2, 3), (1, 3, 3))


def test_condition_ii_repetition_exclusion():
    # gcd 6 is not a 2-power: no dimension admits these triples
    for k in (6, 7, 8):
        assert evaluate_candidate(2, 36, k, (12, 18, 24)) is None
        # the frequencies the moment solve would force are still computable
        freqs = three_weight_solve(36, k, 12, 18, 24).frequencies
        assert tuple(int(f) for f in freqs) == {
            6: (2, 56, 5), 7: (10, 104, 13), 8: (26, 200, 29)
        }[k]
    assert evaluate_candidate(3, 24, 4, (14, 16, 18)) is None
    assert evaluate_candidate(3, 36, 5, (18, 24, 30)) is None


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
@pytest.mark.parametrize("k", [0, 1])
def test_dimension_below_two_is_rejected(q, n, k):
    # (1, 2, 3) passes condition (i) for both lengths; no code of dimension
    # below 2 has three nonzero weights
    assert evaluate_candidate(q, n, k, (1, 2, 3)) is None


def test_enumerate_ternary_survivor():
    c = evaluate_candidate(3, 39, 5, (21, 27, 30))
    assert c is not None and c.frequencies == (42, 188, 12)


def test_ternary_report_to_the_guard_is_pinned():
    # every ternary row below N_GUARD, unlisted ones included (about 2 s);
    # a kernel capped per triple by the Singleton bound n - w1 + 1 listed the
    # same rows, checked once (about 55 s)
    rows = [c.row() for c in feasibility_report(3, 3, N_GUARD - 1, include_unlisted=True)]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert (len(rows), digest) == (806, "47ff52e9552b0ce394b1323a2cca91deffc7739328a94434a4fe07ed29a752f6")


def test_enumerate_guards():
    assert N_GUARD == 1024  # both fields
    with pytest.raises(GuardExceeded):
        enumerate_candidates(2, 4, 1100)
    with pytest.raises(GuardExceeded, match="q=2 enumeration is guarded at n < 1024"):
        enumerate_candidates(2, 1000, N_GUARD)
    with pytest.raises(GuardExceeded, match="q=3 enumeration is guarded at n < 1024"):
        enumerate_candidates(3, 3, N_GUARD)
    with pytest.raises(InvalidArgument, match="enumeration supports q"):
        enumerate_candidates(5, 3, 10)


def test_dodunekov_worked_example_32_10():
    c = _candidate(32, 10, (8, 16, 24))
    assert c.frequencies == (61, 899, 63)
    why = dodunekov_check(c, 3)
    assert why is not None and why.startswith("part (iii), ")
    assert "t=5" in why
    # the intermediate quantities of the check at a = 3
    assert min(10 - 3 - 1, 3 + 1) == 4 and (10 - 3 + 1) // 2 == 4
    assert sum((1, 899)) == 900  # T = A_0 + A_16


def test_dodunekov_worked_example_100():
    c = evaluate_candidate(2, 100, 8, (46, 48, 56))
    assert c is not None and c.frequencies == (32, 145, 78)
    why = dodunekov_check(c, 1)
    assert why is not None and why.startswith("part (iii), ")
    assert "96" in why  # T - 2^k + 2^(k-1) = 224 - 256 + 128


def test_dodunekov_pass_24_11():
    c = _candidate(24, 11, (8, 12, 16))
    for a in range(c.a + 1):
        assert dodunekov_check(c, a) is None


def test_dodunekov_level_above_the_weights_is_a_codes_error():
    c = _candidate(24, 11, (8, 12, 16))
    with pytest.raises(CodesError, match="not all divisible by 2\\^3"):
        dodunekov_check(c, 3)


def test_dodunekov_levels_skip_a2():
    assert dodunekov_levels(4) == [0, 1, 3, 4]
    assert dodunekov_levels(1) == [0, 1]


def test_filter_cor56():
    c = apply_filters(_candidate(58, 8, (24, 31, 32)))
    assert c.verdict == "excluded"
    assert any(r.startswith("length-mod-4") for r in c.reasons())
    assert not any(r.startswith("dodunekov-simonis") for r in c.reasons())


def test_filter_theorem_4delta():
    c = apply_filters(_candidate(64, 12, (16, 32, 48)))
    assert c.verdict == "excluded"
    assert any(r.startswith("four-delta-dimension") for r in c.reasons())


def test_filter_weights_not_midpoint_structure():
    # w2 != n/2: the symmetric-triple lemmas do not apply; the divisibility
    # test still rules the parameters out
    c = apply_filters(_candidate(68, 9, (30, 32, 40)))
    assert c.verdict == "excluded"
    assert any(r.startswith("dodunekov-simonis") for r in c.reasons())


def _built(n, k, w):
    """A binary record that skips conditions (i)-(v), for filter branches no
    admissible row reaches."""
    return Candidate(2, n, k, w, (1, 1, 1), (1, 0, 0), gcd(*w))


# (filter, case, record, the reasons() entries that start with the filter's name)
FILTER_CASES = [
    ("length-mod-4", "excludes", lambda: _candidate(58, 8, (24, 31, 32)),
     ["length-mod-4: n = 58 is not a multiple of 4"]),
    ("length-mod-4", "passes", lambda: _candidate(24, 11, (8, 12, 16)), []),
    ("length-mod-4", "out of scope", lambda: evaluate_candidate(3, 39, 5, (21, 27, 30)), []),
    ("gap-power-of-2", "excludes", lambda: _built(48, 6, (18, 24, 30)),
     ["gap-power-of-2: t = 6 is not a power of 2"]),
    ("gap-power-of-2", "excludes 2t", lambda: _built(48, 6, (8, 24, 40)),
     ["gap-power-of-2: 2t = 32 does not divide n = 48"]),
    ("gap-power-of-2", "passes", lambda: _candidate(32, 10, (8, 16, 24)), []),
    ("gap-power-of-2", "out of scope", lambda: _candidate(68, 9, (30, 32, 40)), []),
    ("divisibility-dimension", "excludes", lambda: _built(48, 10, (23, 24, 25)),
     ["divisibility-dimension: k = 10 exceeds 8a+9 = 9"]),
    ("divisibility-dimension", "passes", lambda: _candidate(32, 10, (8, 16, 24)), []),
    ("divisibility-dimension", "out of scope", lambda: _built(48, 6, (18, 24, 30)), []),
    ("four-delta-dimension", "excludes", lambda: _candidate(64, 12, (16, 32, 48)),
     ["four-delta-dimension: k = 12 exceeds 2a+3 = 11"]),
    ("four-delta-dimension", "passes", lambda: _candidate(32, 9, (8, 16, 24)), []),
    ("four-delta-dimension", "out of scope", lambda: _candidate(68, 9, (30, 32, 40)), []),
    ("dodunekov-simonis", "excludes", lambda: _candidate(68, 9, (30, 32, 40)),
     ["dodunekov-simonis: part (iii), a=1: T-2^k+2^(k-a) = 192 is not a power of 2"]),
    ("dodunekov-simonis", "passes", lambda: _candidate(24, 11, (8, 12, 16)), []),
    ("dodunekov-simonis", "out of scope", lambda: evaluate_candidate(3, 39, 5, (21, 27, 30)), []),
    ("hamming-anticode", "excludes punctured", lambda: _candidate(116, 7, (56, 58, 60)),
     ["hamming-anticode: punctured anticode [10,7,3] violates the sphere-packing bound"]),
    ("hamming-anticode", "excludes", lambda: _candidate(244, 8, (120, 122, 124)),
     ["hamming-anticode: anticode [11,8,4] violates the sphere-packing bound"]),
    ("hamming-anticode", "excludes ternary", lambda: evaluate_candidate(3, 34, 4, (21, 23, 24)),
     ["hamming-anticode: anticode [6,4,3] violates the sphere-packing bound"]),
    ("hamming-anticode", "excludes w3", lambda: _built(48, 5, (16, 24, 32)),
     ["hamming-anticode: w3 = 32 exceeds q^(k-1) = 16"]),
    ("hamming-anticode", "passes", lambda: _candidate(4, 3, (1, 2, 3)), []),
    ("hamming-anticode", "out of scope", lambda: _candidate(24, 11, (8, 12, 16)), []),
]


# The symmetric-triple filters that left the library: they exclude nothing
# that length_candidates admits below the enumerate guards.
MOVED_FILTERS = {
    "gap-power-of-2": filter_gap_power_of_2,
    "divisibility-dimension": filter_divisibility_dimension,
}


@pytest.mark.parametrize(
    "name,record,want", [(n, r, w) for n, _, r, w in FILTER_CASES],
    ids=[f"{n}-{case}" for n, case, _, _ in FILTER_CASES],
)
def test_filter_reasons_pinned(name, record, want):
    c = record()
    got = [r for r in apply_filters(c).reasons() if r.startswith(name)]
    if name in MOVED_FILTERS:  # no longer in the library's chain, kept as oracles
        assert got == []
        why = MOVED_FILTERS[name](c)
        got = [] if why is None else [f"{name}: {why}"]
    assert got == want


def test_hamming_bound():
    assert not hamming_bound_ok(10, 7, 3, 2)  # 128 * 11 = 1408 > 1024
    assert hamming_bound_ok(10, 6, 3, 2)  # 704 <= 1024
    # the sphere-packing bound holds for [14,7,5]: 128 * 106 = 13568 <= 16384
    # (so this parameter set is not excludable by pure sphere packing)
    assert hamming_bound_ok(14, 7, 5, 2)
    for n, k, q in ((10, 3, 2), (9, 4, 3), (31, 11, 2)):
        assert hamming_bound_ok(n, k, 1, q)


@pytest.mark.parametrize("d", [0, 11])
def test_hamming_bound_distance_outside_1_to_n_is_a_codes_error(d):
    with pytest.raises(CodesError, match="need 1 <= d <= n"):
        hamming_bound_ok(10, 3, d, 2)


def test_hamming_bound_matches_binomial_sum_volume():
    """Against q^k * sum_{j <= r} C(n, j) (q-1)^j <= q^n on both sides of
    the largest admissible k, for every d of every length on a grid up to
    the anticode limit."""
    lengths = [*range(1, 129), *range(131, ANTICODE_HAMMING_LIMIT, 11), ANTICODE_HAMMING_LIMIT]
    for q in (2, 3):
        for n in lengths:
            volume, m = 0, 0  # m is the least with volume <= q^m
            for d in range(1, n + 1):
                if d % 2:  # the radius (d-1)//2 grows at odd d
                    r = (d - 1) // 2
                    volume += comb(n, r) * (q - 1) ** r
                    while q**m < volume:
                        m += 1
                # q^k * volume <= q^n exactly when k <= n - m
                assert hamming_bound_ok(n, n - m, d, q), (n, d, q)
                assert not hamming_bound_ok(n, n - m + 1, d, q), (n, d, q)


def _calls(monkeypatch, name, run, module=feasibility):
    """Every (args, result) of the calls to module.<name> that run()
    makes."""
    calls = []
    real = getattr(module, name)

    def record(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    with monkeypatch.context() as patched:
        patched.setattr(module, name, record)
        run()
    return calls


@pytest.mark.parametrize("q,n_min,n_max,calls,exact", [
    (2, 4, 71, 115, 2),
    (3, 3, 39, 67, 0),
    (2, 4, 1023, 496, 6),
    (3, 3, 81, 129, 0),
], ids=["table1", "table2", "binary-1023", "ternary-81"])
def test_hamming_filter_calls_match_the_binomial_sum(monkeypatch, q, n_min, n_max, calls, exact):
    """Every sphere-packing call of the filter chain in a report, unlisted
    rows included, against q^k sum_{j <= r} C(n, j) (q-1)^j <= q^n.  A call
    sums the whole volume (calls comb more than once) exactly when
    room = q^n // q^k lies in [T, (r+1) T), T = C(n, r) (q-1)^r: the largest
    term and its bound decide every other call."""
    combs, exact_sum = [], []
    monkeypatch.setattr(feasibility, "comb", lambda n, j: combs.append(j) or comb(n, j), raising=False)
    real = feasibility.hamming_bound_ok

    def counted(*args):
        start = len(combs)
        result = real(*args)
        exact_sum.append(len(combs) - start > 1)
        return result

    monkeypatch.setattr(feasibility, "hamming_bound_ok", counted)
    recorded = _calls(monkeypatch, "hamming_bound_ok", lambda: feasibility_report(q, n_min, n_max, True))
    between = []
    for (n, k, d, field), result in recorded:
        assert field == q
        r, room = (d - 1) // 2, q**n // q**k
        top = comb(n, r) * (q - 1) ** r
        assert result == (sum(comb(n, j) * (q - 1) ** j for j in range(r + 1)) <= room), (n, k, d)
        between.append(top <= room < (r + 1) * top)
    assert exact_sum == between
    assert (len(recorded), sum(exact_sum)) == (calls, exact)


def _dual_tests(monkeypatch, n_max, run, module=feasibility):
    """Every case (q, n, k, weights, freqs) and result of the dual test that
    run(n) makes through module for n = 1..n_max."""
    return _calls(monkeypatch, "dual_sequence_exact", lambda: [run(n) for n in range(1, n_max + 1)], module)


def _first_four(b_seq):
    """B_0..B_3 of a dual sequence, or None for no sequence."""
    return b_seq and b_seq[:4]


def _kernel_dual_tests(monkeypatch, q, n_max, midpoint=True):
    """Every (args, result) of the dual test the kernel runs up to n_max."""
    return _dual_tests(monkeypatch, n_max, lambda n: list(length_candidates(q, n, length_triples(q, n, midpoint))))


def _frequency_survivors(monkeypatch, q, n_max):
    """Every (q, n, k, weights, freqs) whose frequencies are positive
    integers, in kernel order: the cases the per-case reference
    (catalog.reference_candidate) hands to the full dual test."""
    def run(n):
        for ws in weight_triples(q, n):
            for k in dimension_range(q, n, ws):
                reference_candidate(q, n, k, ws)

    return [args for args, _ in _dual_tests(monkeypatch, n_max, run, catalog)]


@pytest.mark.parametrize("q,n_max,cases,rejected", [(3, 39, 486, 450), (2, 140, 175, 19)])
def test_early_exit_dual_test_matches_binomial_sum_oracle(monkeypatch, q, n_max, cases, rejected):
    """Every frequency survivor of the kernel, accepted or rejected: the
    kernel rejects it at B_3, or the dual test gives the verdict and
    B_0..B_3 of the full binomial-sum transform.  The survivors the kernel
    does not hand to the dual test are its B_3 rejections, and the oracle
    rejects each of them at B_3."""
    calls = _kernel_dual_tests(monkeypatch, q, n_max)
    for args, result in calls:
        assert result == _first_four(dual_sequence(*args)), args
    survivors = _frequency_survivors(monkeypatch, q, n_max)
    tested = [args for args, _ in calls]
    remaining = iter(survivors)
    assert all(args in remaining for args in tested)  # a subsequence, in order
    dual_tested = set(tested)
    b3_rejected = [args for args in survivors if args not in dual_tested]
    for args in b3_rejected:
        _, n, k, ws, freqs = args
        b3 = Fraction(sum(a * krawtchouk(3, w, n, q) for w, a in zip((0, *ws), (1, *freqs))), q**k)
        assert b3.denominator != 1 or b3 < 0, args
        assert dual_sequence(*args) is None, args
    assert len(calls) == {3: 40, 2: 172}[q]  # the survivors of the B_3 step
    assert len(calls) + len(b3_rejected) == cases
    assert len(b3_rejected) + sum(result is None for _, result in calls) == rejected


@pytest.mark.parametrize("run,calls", [
    (lambda: counterexample_scan(140), 480),  # 2,426 without the 2-adic skip
    (lambda: enumerate_candidates(2, 4, 71), 389),  # 1,117 without it
    (lambda: enumerate_candidates(3, 3, 39), 453),  # q = 3 has the floor only
], ids=["scan-140", "table1", "table2"])
def test_two_adic_skip_drops_triples_before_their_gcd(monkeypatch, run, calls):
    """For q = 2 a triple whose cap on k from 2^(k-2) | w1 w2 w3 lies below
    the Hamming floor is dropped before the gcd of condition (ii)."""
    assert len(_calls(monkeypatch, "gcd", run)) == calls


@pytest.mark.parametrize("run,columns,lanes", [
    (lambda: enumerate_candidates(2, 4, 71), 273, 1689),  # 288, 1,803 with a dual_numerators fallback
    (lambda: enumerate_candidates(3, 3, 39), 120, 906),  # 136, 1,097 with it
    (lambda: counterexample_scan(140), 21, 84),  # no scan case fell back
], ids=["table1", "table2", "scan-140"])
def test_dual_test_steps_short_columns(monkeypatch, run, columns, lanes):
    """The dual test steps one krawtchouk_column per weight, and only to
    the lanes it computes exactly (K_i(0) = v_i comes from its walk, carried
    on to the last exact lane), so three per case, and it never hands a case
    to dual_numerators: the count and the lanes stepped pin how far the
    exact ends reach."""
    stepped, fallbacks = [], []
    real_column, real_numerators = transform.krawtchouk_column, transform.dual_numerators
    monkeypatch.setattr(transform, "krawtchouk_column", lambda *args: stepped.append(args) or real_column(*args))
    monkeypatch.setattr(transform, "dual_numerators", lambda *args: fallbacks.append(args) or real_numerators(*args))
    tests = _calls(monkeypatch, "dual_sequence_exact", run)
    assert fallbacks == []
    assert len(stepped) == 3 * len(tests)
    assert (len(stepped), sum(imax + 1 for _, _, _, imax in stepped)) == (columns, lanes)


@pytest.mark.parametrize("run,divisions", [
    (lambda: enumerate_candidates(2, 4, 71), 1216),
    (lambda: enumerate_candidates(3, 3, 39), 2481),  # 9873 with k up to n, not the covering cap
], ids=["table1", "table2"])
def test_kernel_division_count_pins_its_steps(monkeypatch, run, divisions):
    """Every (triple, k) step of the kernel divides once for A_2, and
    further for A_1, A_3 and B_3: the count moves with the first and the
    last k of each triple, which changes no output (below the Hamming floor
    no frequency triple is positive, and for q = 3 no code has q^k past
    V(n, 3), a cap that test_lifting_the_covering_cap_admits_nothing_more
    lifts)."""
    count = []

    def counted(a, b):
        count.append(1)
        return divmod(a, b)

    monkeypatch.setattr(feasibility, "divmod", counted, raising=False)
    run()
    assert len(count) == divisions


def _dual_routes(calls):
    """(args, result, sizing, packed, streamed) per recorded dual test (args,
    result): the packed oracle on one DualLanes per length, with that
    lanes' (width, k_cap, count), and B_0..B_3 of dual_numerators when the
    whole distribution is nonnegative integers, else None.  Only one
    length's lanes are held at a time."""
    out, lanes = [], None
    for args, result in calls:
        q, n, k, ws, freqs = args
        if lanes is None or (lanes.q, lanes.n) != (q, n):
            lanes = DualLanes(q, n)
        b_seq = [divmod(v, q**k) for v in dual_numerators({0: 1, **dict(zip(ws, freqs))}, n, q)]
        streamed = tuple(b for b, _ in b_seq[:4]) if all(rem == 0 and b >= 0 for b, rem in b_seq) else None
        packed = packed_dual_sequence(lanes, k, ws, freqs)
        out.append((args, result, (lanes.width, lanes.k_cap, lanes.count), packed, streamed))
    return out


@pytest.fixture(scope="module")
def kernel_to_the_guards():
    """Every output of length_candidates for q = 2, n < N_GUARD and
    q = 3, n <= 81, and every dual test it makes, through _dual_routes."""
    outputs = []

    def run():
        for q, n_max in ((2, N_GUARD - 1), (3, 81)):
            outputs.extend(c for n in range(1, n_max + 1) for c in length_candidates(q, n, length_triples(q, n)))

    with pytest.MonkeyPatch.context() as patched:
        tests = _calls(patched, "dual_sequence_exact", run)
    return outputs, _dual_routes(tests)


@pytest.fixture(scope="module")
def dual_tests_past_the_guards():
    """Every dual test, through _dual_routes, of the ternary kernel at
    82 <= n <= 243 and of counterexample_scan(2047)."""
    def run():
        for n in range(82, 244):
            list(length_candidates(3, n, length_triples(3, n)))
        counterexample_scan(2047)

    with pytest.MonkeyPatch.context() as patched:
        return _dual_routes(_calls(patched, "dual_sequence_exact", run))


def test_packed_dual_test_matches_dual_numerators_to_the_guards(kernel_to_the_guards):
    """The packed oracle gives the verdict and B_0..B_3 of the streamed
    numerators of the whole distribution on every dual test the kernel
    makes to the guards, on lanes of the width the cases need."""
    _, tests = kernel_to_the_guards
    assert len(tests) == 987
    for (q, n, k, ws, _), _, (width, k_cap, count), packed, streamed in tests:
        assert width % 8 == 0 and 2 ** (width - 2) > q ** (n + k_cap)
        assert k <= k_cap and count == (n // 2 + 1 if q == 2 else n + 1)
        assert packed == streamed, (q, n, k, ws)


def test_dual_test_matches_packed_oracle_and_dual_numerators(kernel_to_the_guards, dual_tests_past_the_guards):
    """Every dual test of enumerate --q 2 to 1023, of every ternary length to
    243 and of counterexample_scan(2047): the verdict and B_0..B_3 of
    dual_sequence_exact, of the packed oracle and of dual_numerators agree."""
    tests = kernel_to_the_guards[1] + dual_tests_past_the_guards
    binary = sum(args[0] == 2 for args, *_ in kernel_to_the_guards[1])
    assert (binary, len(tests) - binary, len(dual_tests_past_the_guards)) == (900, 529, 251 + 191)
    assert sum(result is not None for _, result, _, _, _ in tests) == 1379
    for args, result, _, packed, streamed in tests:
        assert result == packed == streamed, args


def test_moved_filters_pass_every_kernel_output(kernel_to_the_guards):
    outputs, _ = kernel_to_the_guards
    assert len(outputs) == 950
    for c in outputs:
        assert filter_gap_power_of_2(c) is None and filter_divisibility_dimension(c) is None, c


@pytest.mark.parametrize("k,freqs", [(8, (1, 3, 3)), (3, (1, 3, 4)), (3, (0, 0, -1))])
def test_dual_test_refuses_cases_past_its_lanes(k, freqs):
    # the packed oracle's lanes of length 4 over GF(2) hold k <= 3 bitlen(4)
    # - 2 = 7, so no k = 8, and frequencies summing past q^k - 1 or negative
    # could carry between lanes
    lanes = DualLanes(2, 4)
    assert lanes.k_cap == 7
    with pytest.raises(SelfCheckFailed, match="lanes of width 16 for q=2, n=4, k <= 7 cannot hold"):
        packed_dual_sequence(lanes, k, (1, 2, 3), freqs)


@pytest.mark.parametrize("q,n,k,weights,freqs", [
    (2, 4, 2, (1, 2, 3), (0, 1, 2)),  # B_3 = 2 sits in lane 1 of the mirrored sum
    (2, 4, 3, (2, 3, 4), (0, 0, 7)),  # q^k B = (8, -24, 48, -24, 8): only the signs fail
    (2, 4, 4, (1, 2, 4), (0, 14, 1)),  # q^k B = (16, 0, -16, 0, 16): only the top lane's sign fails
    (2, 4, 3, (1, 2, 3), (2, 3, 2)),  # q^k B = (8, 4, 0, 4, 0): only B_1 is fractional
    (3, 4, 2, (1, 2, 3), (3, 0, 5)),  # q^k B = (9, 18, 27, 45, -18): only the signs fail
], ids=["binary-b3-mirror", "binary-sign", "binary-top-sign", "binary-integrality", "ternary-sign"])
def test_dual_test_masks_against_the_oracle(q, n, k, weights, freqs):
    want = _first_four(dual_sequence(q, n, k, weights, freqs))
    assert dual_sequence_exact(q, n, k, weights, freqs) == packed_dual_sequence(DualLanes(q, n), k, weights, freqs) == want


@pytest.mark.parametrize("n,k,weights,freqs,negative,fractional", [
    # v_0 = 1 is the only lane at or below the bound, so the high end is
    # the one lane q^k B_229 = 1 - 2
    (229, 0, (115, 116, 229), (2, 0, 0), [229], []),
    # B_0..B_3 are integers and the one moment past them, T_4, is odd
    (22, 5, (10, 12, 13), (14, 9, 8), [], [4, 6, 20, 22]),
], ids=["last-high-lane", "last-moment"])
def test_dual_test_reaches_its_last_exact_lane_and_moment(n, k, weights, freqs, negative, fractional):
    """Over GF(2), a case that only the last exact lane of the high end, or
    only the last binomial moment q^(k-nu) | T_nu, rejects."""
    lanes = dual_numerators({0: 1, **dict(zip(weights, freqs))}, n, 2)
    assert [i for i, x in enumerate(lanes) if x < 0] == negative
    assert [i for i, x in enumerate(lanes) if x % 2**k] == fractional
    assert dual_sequence_exact(2, n, k, weights, freqs) is None


def test_ternary_quotient_mask_catches_what_the_remainder_misses():
    lanes = DualLanes(3, 4)
    numerators = list(dual_numerators({0: 1}, 4, 3))
    assert numerators == [1, 8, 24, 32, 16]
    assert sum(v << lanes.width * i for i, v in enumerate(numerators)) % 9 == 0
    assert packed_dual_sequence(lanes, 2, (1, 2, 3), (0, 0, 0)) is None
    assert dual_sequence_exact(3, 4, 2, (1, 2, 3), (0, 0, 0)) is None


@pytest.mark.parametrize("order", [range(3, 7), range(6, 2, -1)], ids=["ascending", "descending"])
def test_one_lanes_decides_several_k_against_the_oracle(order):
    """One DualLanes of the packed oracle decides the cases of several k of
    one length in turn with its one quotient mask, and dual_sequence_exact
    gives the same results.  The sets are the forced frequencies of
    (2, 4, 6) at n = 8 for k = 4, 5, 6, the set (1, 3, 3) admitted at k = 3
    only, (3, 7, 5) admitted at k = 4 only, a set with negative B_2 and one
    with fractional B_1."""
    lanes, weights = DualLanes(2, 8), (2, 4, 6)
    sets = [(1, 3, 3), (3, 7, 5), (1, 11, 3), (5, 19, 7), (13, 35, 15), (0, 0, 0)]
    admitted = []
    for k in order:
        for freqs in [f for f in sets if sum(f) < 2**k] + [(0, 2**k - 2, 1)]:
            got = packed_dual_sequence(lanes, k, weights, freqs)
            assert got == dual_sequence_exact(2, 8, k, weights, freqs) == _first_four(dual_sequence(2, 8, k, weights, freqs))
            admitted += [(k, freqs)] if got else []
    assert sorted(admitted) == [(3, (1, 3, 3)), (4, (1, 11, 3)), (4, (3, 7, 5)), (5, (5, 19, 7)), (6, (13, 35, 15))]


def test_hamming_floor_is_the_least_dimension_with_room():
    for q in (2, 3):
        for n in range(1, 3000):
            k = hamming_floor(q, n)
            assert q**k >= 1 + n * (q - 1) > q ** (k - 1), (q, n)


def _delsarte_sides(counts, numerators, n, q):
    """Both sides of sum_i V(i) q^k B_i = sum_w A_w L(w)^2, with V(0) =
    1 + n(q-1), V(1) = q, V(2) = 2, V = 0 beyond, L(w) = 1 + n(q-1) - qw
    and q^k B_i the numerators sum_w A_w K_i(w)."""
    v = (1 + n * (q - 1), q, 2)
    lhs = sum(vi * b for vi, b in zip(v, numerators))
    rhs = sum(a * (1 + n * (q - 1) - q * w) ** 2 for w, a in counts.items())
    return lhs, rhs


def test_delsarte_identity_behind_the_floor_on_fixtures(fixture_codes):
    """The identity gives q^k (1 + n(q-1)) >= (1 + n(q-1))^2 once B_0 = 1,
    B_1 = B_2 = 0: every fixture is a projective code, and has k at or above
    the Hamming floor."""
    assert len(fixture_codes) == 74
    for _, code, _ in fixture_codes:
        n, q, counts = code.n, code.q, code.weight_distribution().as_dict()
        numerators = list(dual_numerators(counts, n, q))[:3]
        assert numerators == [q**code.k, 0, 0], code
        lhs, rhs = _delsarte_sides(counts, numerators, n, q)
        assert lhs == rhs == q**code.k * (1 + n * (q - 1)), code
        assert code.k >= hamming_floor(q, n), code


def test_delsarte_identity_behind_the_floor_on_random_counts():
    rng = random.Random(43)
    for _ in range(300):
        q = rng.choice((2, 3))
        n = rng.randint(0, 80)
        weights = rng.sample(range(n + 1), rng.randint(1, min(n + 1, 6)))
        counts = {w: rng.choice((0, 1, rng.randint(1, 10**6))) for w in weights}
        numerators = [sum(a * krawtchouk(i, w, n, q) for w, a in counts.items()) for i in range(3)]
        lhs, rhs = _delsarte_sides(counts, numerators, n, q)
        assert lhs == rhs, (q, n, counts)


def test_b3_disagreeing_with_the_dual_distribution_raises(monkeypatch):
    real = feasibility.dual_sequence_exact

    def shifted_b3(*args):
        b = real(*args)
        return b and b[:3] + (b[3] + 1,) + b[4:]

    monkeypatch.setattr(feasibility, "dual_sequence_exact", shifted_b3)
    with pytest.raises(SelfCheckFailed, match=re.escape("B_0..B_3 = (1, 0, 0, 2) of the dual distribution, not (1, 0, 0, 1)")):
        list(length_candidates(2, 4, length_triples(2, 4)))


def test_dual_test_admitting_a_nonzero_b1_raises(monkeypatch):
    # B_0 = 1 and B_1 = B_2 = 0 hold by construction of the frequencies, so
    # a dual test that admits the case with B_1 = 1 is a fault, not a reject
    real = feasibility.dual_sequence_exact

    def nonzero_b1(*args):
        b = real(*args)
        return b and (1, 1, 0, b[3])

    monkeypatch.setattr(feasibility, "dual_sequence_exact", nonzero_b1)
    with pytest.raises(SelfCheckFailed, match=re.escape("B_0..B_3 = (1, 1, 0, 1) of the dual distribution, not (1, 0, 0, 1)")):
        list(length_candidates(2, 4, length_triples(2, 4)))


def test_midpoint_skip_matches_filtered_kernel(monkeypatch):
    for n in range(1, 513):
        every, skipped = length_triples(2, n), length_triples(2, n, midpoint=False)
        assert skipped == [ws for ws in every if ws[1] * 2 != n], n
        want = [c for c in length_candidates(2, n, every) if c.weights[1] * 2 != n]
        assert list(length_candidates(2, n, skipped)) == want, n
    # and the skipped triples reach no dual test
    calls = _kernel_dual_tests(monkeypatch, 2, 140, midpoint=False)
    assert calls and all(ws[1] * 2 != n for (_, n, _, ws, _), _ in calls)


def test_scan_reproduces_catalog(tmp_path):
    rows = [(c.n, c.weights, c.y, c.frequencies, c.b3) for c in counterexample_scan(130)]
    assert rows == [
        (112, (50, 54, 64), 128, (48, 336, 127), 322),
        (116, (54, 56, 64), 128, (256, 56, 199), 440),
        (120, (54, 62, 64), 64, (72, 120, 63), 1180),
        (124, (56, 64, 66), 64, (72, 119, 64), 1296),
    ]
    assert counterexample_scan(71) == []


def test_scan_guard():
    # the scan has its own guard; enumerate keeps N_GUARD for both fields
    assert SCAN_GUARD == 8192
    with pytest.raises(GuardExceeded, match="scan is guarded at n < 8192"):
        counterexample_scan(SCAN_GUARD)


@pytest.mark.parametrize("q,n_max,cases", [(2, 256, 1_027_990), (3, 81, 918_778)])
def test_length_kernel_matches_the_case_reference(q, n_max, cases):
    """The per-length kernel yields exactly the admissible results of the
    per-case reference (catalog.reference_candidate, with its own frequency
    route) over every (n, triple, k) case, in the same order
    and with equal frequencies, dual distributions and gcds.  The lengths
    start at 1, so n = 1, 2 and the lengths with no integral weight sum
    3n(q-1)/q are covered (both routes yield nothing there).  The reference
    route has no Hamming floor and, for q = 3, no cap below k <= n, so
    finding 1 + n(q-1) <= q^k <= V(n, 3) on every case it admits checks,
    on its own, the two bounds the kernel cuts at; k <= n - w1 + 1, the
    Singleton bound, holds there too."""
    seen = 0
    for n in range(1, n_max + 1):
        want = []
        for ws in weight_triples(q, n):
            for k in dimension_range(q, n, ws):
                seen += 1
                c = reference_candidate(q, n, k, ws)
                if c is not None:
                    assert q**k >= 1 + n * (q - 1), (n, k, ws)
                    assert k <= n - ws[0] + 1, (n, k, ws)
                    assert q**k <= sum(comb(n, i) * (q - 1) ** i for i in range(4)), (n, k, ws)
                    want.append(c)
        assert list(length_candidates(q, n, length_triples(q, n))) == want, n
    assert seen == cases


def test_lifting_the_covering_cap_admits_nothing_more(monkeypatch):
    """The ternary kernel with the covering cap lifted to k <= n, condition
    (iii)'s own bound for q = 3 and the range of catalog.dimension_range,
    admits the rows of the capped kernel for 82 <= n <= 243; below 82,
    test_length_kernel_matches_the_case_reference runs every k <= n."""
    def rows():
        return [c for n in range(82, 244) for c in length_candidates(3, n, length_triples(3, n))]

    capped = rows()
    monkeypatch.setattr(feasibility, "_covering_cap", lambda q, n: n)
    assert len(capped) == 190 and rows() == capped


@pytest.mark.parametrize("q,n_max,cases", [(2, 128, 257_451), (3, 45, 91_788)])
def test_evaluate_candidate_is_a_view_of_the_case_reference(q, n_max, cases):
    """evaluate_candidate, the kernel run on one triple after condition (i),
    decides every case as the per-case reference does: every triple of
    condition (i) at each k of dimension_range, and at k = 0, 1 and 2,
    which it leaves out for q = 2."""
    seen = 0
    for n in range(1, n_max + 1):
        for ws in weight_triples(q, n):
            for k in sorted({0, 1, 2, *dimension_range(q, n, ws)}):
                seen += 1
                assert evaluate_candidate(q, n, k, ws) == reference_candidate(q, n, k, ws), (n, k, ws)
    assert seen == cases


@pytest.mark.parametrize("n_max,rows", [(511, 26), (1023, 50), (2047, 147)])
def test_scan_matches_pinned_rows(n_max, rows):
    want = [r for r in SCAN if r[0] <= n_max]
    assert len(want) == rows
    got = [(c.n, c.k, c.weights, c.frequencies, c.b3) for c in counterexample_scan(n_max)]
    assert got == want


def test_pinned_scan_rows_match_the_rational_solver():
    # the scan to SCAN_GUARD - 1 = 8191 (about 32 s in CPython 3.11), pinned row by row
    assert len(SCAN) == 528 and SCAN[-1][0] < SCAN_GUARD
    for n, k, ws, freqs, b3 in SCAN:
        assert ws[1] * 2 != n and sum(ws) * 2 == 3 * n
        sol = three_weight_solve(n, k, *ws)
        assert sol.frequencies == freqs and sol.b3 == b3, (n, k, ws)
        assert closed_form_solve(n, k, *ws) == sol, (n, k, ws)


def test_scan_survivor_invariants():
    for c in counterexample_scan(130):
        assert c.weights[1] * 2 != c.n
        assert all(dodunekov_check(c, a) is None for a in range(c.a + 1))


def test_annotations_never_override_arithmetic():
    table = load_annotations()
    assert table[(2, 64, 11, (28, 32, 36))].source == "codetables"
    assert table[(2, 64, 13, (24, 32, 40))].source == "jaffe1997"
    # an excluded candidate stays excluded even if an annotation existed
    c = apply_filters(_candidate(32, 10, (8, 16, 24)))
    merged = merge_annotations([c])[0]
    assert merged.verdict == "excluded"


def test_report_unlisted_rows_are_suppressed_but_retrievable():
    default = feasibility_report(2, 44, 44)
    assert default == []
    full = feasibility_report(2, 44, 44, include_unlisted=True)
    assert len(full) == 1
    c = full[0]
    assert (c.n, c.k, c.weights, c.frequencies) == (44, 6, (20, 22, 24), (22, 8, 33))
    assert c.annotation is not None and c.annotation.verdict == "unlisted"
    # the row is arithmetically excluded by the divisibility test at a = 1
    assert dodunekov_check(c, 1) is not None


def test_ternary_unlisted_rows():
    default = feasibility_report(3, 7, 7)
    assert default == []
    full = feasibility_report(3, 7, 7, include_unlisted=True)
    assert [(c.n, c.k, c.weights, c.frequencies) for c in full] == [
        (7, 3, (3, 5, 6), (4, 18, 4))
    ]


def test_survivor_midpoint_and_difference_invariants():
    rows = feasibility_report(2, 4, 71)
    for c in rows:
        if c.verdict == "excluded":
            continue
        n, (w1, w2, w3) = c.n, c.weights
        assert w2 * 2 == n  # midpoint property holds on the resolved range
        t = midpoint_gap(c)
        assert t is not None and t & (t - 1) == 0 and n % (2 * t) == 0
        assert c.frequencies[2] - c.frequencies[0] == n // (2 * t)
        assert (w1 * w2 * w3) % (1 << (c.k - 2)) == 0


@pytest.mark.parametrize(
    "a,k_value,n_value,weights,freqs",
    [
        (1, 3, 4, (1, 2, 3), (1, 3, 3)),
        (2, 6, 56, (26, 28, 30), (7, 35, 21)),
    ],
)
def test_kn_witness_small(a, k_value, n_value, weights, freqs):
    w = kn_witness(a)
    assert (w.k_value, w.n_value) == (k_value, n_value)
    dist = w.witness.weight_distribution()
    assert dist.nonzero_weights() == weights
    assert tuple(dist.frequency(x) for x in weights) == freqs
    assert w.k_bounds == (2 * a + 1, 8 * a + 1)
    assert w.n_bounds == (2 ** (2 * a + 1) - 2 ** (a + 1), 2**k_value - 3)


def test_kn_witness_rejects_large_a():
    with pytest.raises(InvalidArgument, match="witnesses are available"):
        kn_witness(4)


def test_kn_witness_checks_raise(monkeypatch):
    # a wrong construction must fail the explicit checks, also under python -O
    monkeypatch.setattr(feasibility, "parity_check_code", lambda n: parity_check_code(n + 1))
    with pytest.raises(SelfCheckFailed):
        kn_witness(2)


def test_admissibility_path_builds_no_fraction(monkeypatch):
    # conditions (i)-(v) run on integers only: frequencies by integer Cramer,
    # the dual distribution by integer division
    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built on the admissibility path")

    monkeypatch.setattr(Fraction, "__new__", staticmethod(refuse))
    assert len(enumerate_candidates(2, 4, 40)) > 10
    assert len(enumerate_candidates(3, 3, 21)) > 5
    assert len(counterexample_scan(120)) == 3

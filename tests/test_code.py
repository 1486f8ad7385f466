from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from threeweight import code as code_module
from threeweight.code import (
    LinearCode,
    MultiplicityType,
    golay23,
    parity_check_code,
    reed_muller,
    simplex,
)
from threeweight.errors import GuardExceeded, InvalidArgument, SelfCheckFailed
from threeweight.feasibility import kn_witness
from threeweight.gfmat import GF2, GF3, FieldMatrix, PrimeField
from threeweight.matrixio import parse_matrix_file
from threeweight.transform import dual_distribution

from code_oracles import (
    columns,
    complement_by_points,
    projectivity_by_points,
    theorem_4delta,
    theorem_4delta_minus1,
)
from conftest import data_path
from swrg_oracles import encode_vector
from transform_oracles import power_moment


def lemma_four_three():
    return parse_matrix_file(data_path("matrices/q2_n004_k03_w1_2_3.txt"))


def test_rank_enforced():
    with pytest.raises(InvalidArgument, match="rank"):
        LinearCode(GF2, FieldMatrix.from_rows(GF2, [[1, 1], [1, 1]]))


def test_weight_distribution_small_cases():
    assert lemma_four_three().weight_distribution().as_dict() == {0: 1, 1: 1, 2: 3, 3: 3}
    assert simplex(2, 3).weight_distribution().as_dict() == {0: 1, 4: 7}
    c = parse_matrix_file(data_path("matrices/q2_n024_k11_w8_12_16.txt"))
    d = c.weight_distribution()
    assert (d.frequency(8), d.frequency(12), d.frequency(16)) == (378, 1288, 381)


def test_enumeration_guard():
    identity = ((1 if i == j else 0 for j in range(27)) for i in range(27))
    big = LinearCode(GF2, FieldMatrix.from_rows(GF2, identity))
    with pytest.raises(GuardExceeded, match="enumeration guard"):
        big.weight_distribution()


def test_is_projective():
    assert parity_check_code(6).is_projective()[0]
    doubled = simplex(2, 2).direct_sum(simplex(2, 2))
    # same columns twice, re-read as one 2x6 matrix: build the true 2-fold repetition
    rows = [r + r for r in simplex(2, 2).generator.to_rows()]
    rep = LinearCode(GF2, FieldMatrix.from_rows(GF2, rows))
    flag, mult = rep.is_projective()
    assert not flag
    assert mult.as_dict() == {2: 3}
    assert doubled.k == 4  # direct sum is a different, 4-dimensional object


def test_is_projective_is_computed_once_and_kept():
    code = lemma_four_three()
    assert code._projectivity is None
    first = code.is_projective()
    assert code.is_projective() == first and code.is_projective() is first
    assert code._projectivity is first
    # the kept value is immutable: a bool and the multiplicity type, a NamedTuple
    flag, mult = first
    assert type(first) is tuple and type(flag) is bool
    assert isinstance(mult, MultiplicityType)
    with pytest.raises(AttributeError):
        mult.zero_positions = 1


def test_derived_codes_start_without_kept_projectivity():
    code = lemma_four_three()  # its odd-weight rows make a new even-weight subcode
    code.is_projective()
    derived = [
        code.even_weight_subcode(),
        code.anticode(),
        code.direct_sum(code),
    ]
    for d in derived:
        assert d is not code
        assert d._projectivity is None
        assert d.is_projective() == LinearCode(d.field, d.generator).is_projective()


def test_multiplicity_type_positions_invariant(fixture_codes):
    for _, code, _ in fixture_codes[:10]:
        flag, mult = code.is_projective()
        assert flag and sum(i * c for i, c in mult.m) + mult.zero_positions == code.n
        assert mult.as_dict() == {1: code.n}


def test_even_weight_subcode_oracle():
    code = lemma_four_three()
    # oracle first: enumerate the 8 words directly and keep the even ones
    rows = code.generator.to_rows()
    words = set()
    for m in range(8):
        vec = tuple(
            sum(rows[i][j] for i in range(3) if (m >> i) & 1) % 2 for j in range(4)
        )
        if sum(vec) % 2 == 0:
            words.add(vec)
    even = code.even_weight_subcode()
    assert even.k == 2 and even.n == 4
    assert even.weight_distribution().as_dict() == {0: 1, 2: 3}
    assert even.n - even.is_projective()[1].zero_positions == 3
    spanned = set()
    for m in range(4):
        er = even.generator.to_rows()
        spanned.add(
            tuple(sum(er[i][j] for i in range(2) if (m >> i) & 1) % 2 for j in range(4))
        )
    assert spanned == words


def test_even_weight_subcode_of_even_code_is_same():
    pc = parity_check_code(5)
    assert pc.even_weight_subcode() is pc


def test_even_weight_subcode_requires_binary():
    with pytest.raises(InvalidArgument, match="binary"):
        simplex(3, 2).even_weight_subcode()


def test_golay_even_subcode_enumerator():
    even = golay23().even_weight_subcode()
    assert even.n == 23 and even.k == 11
    assert even.weight_distribution().as_dict() == {0: 1, 8: 506, 12: 1288, 16: 253}


def test_anticode_parity7():
    anti = parity_check_code(7).anticode()
    assert (anti.n, anti.k) == (56, 6)
    d = anti.weight_distribution()
    assert d.nonzero_weights() == (26, 28, 30)
    assert tuple(d.frequency(w) for w in (26, 28, 30)) == (7, 35, 21)


def test_anticode_canonicalises_each_column_once(monkeypatch):
    computed, passes = [], []
    compute, scalar_numerals = LinearCode.is_projective, code_module._scalar_numerals

    def counting_projectivity(self):
        if self._projectivity is None:
            computed.append(self)
        return compute(self)

    def counting_numerals(q, n, rows):
        passes.append(n)
        return scalar_numerals(q, n, rows)

    monkeypatch.setattr(LinearCode, "is_projective", counting_projectivity)
    monkeypatch.setattr(code_module, "_scalar_numerals", counting_numerals)
    code = parity_check_code(7)
    code.anticode()
    assert computed == [code]  # anticode reuses the flag is_projective kept
    # one pass keys the 7 columns for projectivity, and one keys them again
    # side by side with the 63 points of PG(5, 2) for the complement
    assert passes == [7, 7 + 63]


@pytest.mark.parametrize("a,source", [
    (1, lambda: simplex(2, 1).direct_sum(reed_muller(2, 2))),
    (2, lambda: parity_check_code(7)),
    (3, lambda: golay23().even_weight_subcode()),
])
def test_anticode_matches_tuple_complement_for_kn_witnesses(a, source):
    witness = kn_witness(a).witness
    assert columns(witness.generator) == complement_by_points(source())


@st.composite
def projective_codes(draw):
    """A projective code: the unit points, so the rank is full, and drawn
    further points of PG(k-1, q), each scaled by a drawn nonzero scalar, in
    a drawn order."""
    q = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(2, 5 if q == 2 else 4))
    points = code_module._projective_points(q, k)
    units = [pt for pt in points if sum(pt) == 1]
    others = [pt for pt in points if sum(pt) != 1]
    chosen = units + draw(st.lists(st.sampled_from(others), unique=True, max_size=len(others)))
    scalars = draw(st.lists(st.integers(1, q - 1), min_size=len(chosen), max_size=len(chosen)))
    cols = [tuple(lam * e % q for e in pt) for pt, lam in zip(chosen, scalars)]
    field = PrimeField(q)
    return LinearCode(field, FieldMatrix.from_columns(field, draw(st.permutations(cols))))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(projective_codes())
def test_anticode_matches_tuple_complement_for_drawn_projective_codes(code):
    assert code.is_projective()[0]
    try:
        anti = code.anticode()
    except InvalidArgument:  # the complement does not span: no anticode
        assume(False)
    assert columns(anti.generator) == complement_by_points(code)


@st.composite
def generators_with_repeats(draw):
    """A full-rank code: the unit columns, drawn columns, then zero columns,
    repeats and nonzero multiples of earlier columns, in a drawn order."""
    q = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(1, 5))
    cols = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    cols += draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * k), max_size=8))
    for kind in draw(st.lists(st.sampled_from(("zero", "repeat", "multiple")), max_size=6)):
        col = draw(st.sampled_from(cols))
        if kind == "zero":
            cols.append((0,) * k)
        else:
            lam = 1 if kind == "repeat" else draw(st.integers(1, q - 1))
            cols.append(tuple(lam * e % q for e in col))
    field = PrimeField(q)
    return LinearCode(field, FieldMatrix.from_columns(field, draw(st.permutations(cols))))


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(generators_with_repeats())
def test_is_projective_matches_canonical_points(code):
    flag, mult, _ = projectivity_by_points(code)
    assert code.is_projective() == (flag, mult)


@pytest.mark.parametrize("q,k", [
    *((2, k) for k in (8, 9, 16, 17, 24, 25, 32, 33, 64, 65)),
    *((3, k) for k in (5, 6, 10, 11, 15, 16, 20, 21, 40, 41)),
])
def test_numerals_match_digitwise_encoding_across_lane_widths(q, k):
    # k on both sides of each step of the lane width; the all-(q-1) column
    # fills its lane, so a lane too narrow would carry into the next
    rng = random.Random(100 * q + k)
    cols = [(0,) * k, (q - 1,) * k, (1,) + (0,) * (k - 1), (0,) * (k - 1) + (1,)]
    cols += [tuple(rng.randrange(q) for _ in range(k)) for _ in range(40)]
    rows = tuple(map(bytes, zip(*cols)))
    assert q**k <= 256 ** code_module._lane_width(q, k)
    assert code_module._numerals(q, len(cols), rows) == tuple(encode_vector(c, q) for c in cols)


def test_numerals_match_digitwise_encoding_on_fixtures(fixture_codes):
    assert len(fixture_codes) == 74
    for name, code, _ in fixture_codes:
        assert code.q**code.k <= 256 ** code_module._lane_width(code.q, code.k), name
        numerals = code_module._numerals(code.q, code.n, code.generator.packed_rows())
        assert numerals == tuple(encode_vector(c, code.q) for c in columns(code.generator)), name


def test_anticode_of_simplex_rejected():
    with pytest.raises(InvalidArgument, match="complement does not span"):
        simplex(2, 3).anticode()


def test_anticode_involution_preserves_distribution():
    code = lemma_four_three()
    anti = code.anticode()
    assert anti.weight_distribution().as_dict() == {0: 1, 1: 3, 2: 3, 3: 1}
    back = anti.anticode()
    assert back.weight_distribution().as_dict() == code.weight_distribution().as_dict()
    # and the parity-check round trip: [7,6] -> [56,6] -> [7,6]
    pc = parity_check_code(7)
    again = pc.anticode().anticode()
    assert again.weight_distribution().as_dict() == pc.weight_distribution().as_dict()


def test_direct_sum_product_rule():
    s = simplex(2, 2)
    ds = s.direct_sum(s)
    assert (ds.n, ds.k) == (6, 4)
    assert ds.weight_distribution().as_dict() == {0: 1, 2: 6, 4: 9}  # (1+3x^2)^2
    # oracle: convolution of enumerators, computed independently
    a = simplex(2, 3).weight_distribution().as_dict()
    b = reed_muller(2, 4).weight_distribution().as_dict()
    conv = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            conv[wa + wb] = conv.get(wa + wb, 0) + ca * cb
    big = simplex(2, 3).direct_sum(reed_muller(2, 4))
    assert (big.n, big.k) == (15, 7)
    assert big.weight_distribution().as_dict() == conv
    assert big.weight_distribution().nonzero_weights() == (4, 8, 12)


def test_direct_sum_random_product_rule():
    rng = random.Random(23)
    for _ in range(5):
        rows1 = [[rng.randrange(2) for _ in range(5)] for _ in range(2)]
        rows2 = [[rng.randrange(2) for _ in range(4)] for _ in range(2)]
        try:
            c1 = LinearCode(GF2, FieldMatrix.from_rows(GF2, rows1))
            c2 = LinearCode(GF2, FieldMatrix.from_rows(GF2, rows2))
        except InvalidArgument:  # a random generator of rank < 2
            continue
        c1.direct_sum(c2)  # product rule checked inside


def _misweigh(monkeypatch):
    """Make enumeration return wrong weights that pass its own total and
    first-moment checks: two codewords of one weight w move to w - 1 and
    w + 1."""
    kernel = code_module._weight_counts

    def misweighed(q, rows):
        counts = kernel(q, rows)
        w = next(w for w in range(1, len(counts) - 1) if counts[w] >= 2)
        counts[w - 1 : w + 2] = counts[w - 1] + 1, counts[w] - 2, counts[w + 1] + 1
        return counts

    monkeypatch.setattr(code_module, "_weight_counts", misweighed)


def test_enumeration_total_check_raises(monkeypatch):
    monkeypatch.setattr(code_module, "_weight_counts", lambda q, rows: [1])
    with pytest.raises(SelfCheckFailed):
        LinearCode(GF2, FieldMatrix.from_rows(GF2, [[1, 0, 1], [0, 1, 1]])).weight_distribution()


@pytest.mark.parametrize("q", [3])
def test_enumeration_total_check_raises_on_odd_fields(monkeypatch, q):
    field = PrimeField(q)
    monkeypatch.setattr(code_module, "_weight_counts", lambda q, rows: [1, 0, q**2 - 2])
    with pytest.raises(SelfCheckFailed, match="codewords, not q"):
        LinearCode(field, FieldMatrix.from_rows(field, [[1, 0, 1], [0, 1, 1]])).weight_distribution()


# The right total q^2 with the wrong first moment: three nonzero columns
# give sum w A_w = q(q - 1) 3, and [1, 1, q^2 - 2] gives 2 q^2 - 3.  With a
# zero column appended the expected moment stays, so the check counts
# nonzero columns, not positions.
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("zero_column", [False, True])
def test_first_moment_check_raises(monkeypatch, q, zero_column):
    field = PrimeField(q)
    rows = [[1, 0, 1] + [0] * zero_column, [0, 1, 1] + [0] * zero_column]
    code = LinearCode(field, FieldMatrix.from_rows(field, rows))
    assert sum(w * a for w, a in code.weight_distribution().counts) == q * (q - 1) * 3
    code = LinearCode(field, FieldMatrix.from_rows(field, rows))
    monkeypatch.setattr(code_module, "_weight_counts", lambda q, rows: [1, 1, q**2 - 2])
    with pytest.raises(SelfCheckFailed, match=r"not q\^\(k-1\)\(q-1\) times 3 nonzero"):
        code.weight_distribution()


def test_direct_sum_check_raises(monkeypatch):
    a, b = simplex(2, 2), simplex(2, 3)
    a.weight_distribution(), b.weight_distribution()
    _misweigh(monkeypatch)
    with pytest.raises(SelfCheckFailed):
        a.direct_sum(b)


def test_anticode_check_raises(monkeypatch):
    pc = parity_check_code(7)
    pc.weight_distribution()
    _misweigh(monkeypatch)
    with pytest.raises(SelfCheckFailed):
        pc.anticode()


@pytest.mark.parametrize("build", [golay23])
def test_construction_checks_raise(monkeypatch, build):
    _misweigh(monkeypatch)
    with pytest.raises(SelfCheckFailed):
        build()


def test_direct_sum_field_mismatch():
    with pytest.raises(InvalidArgument, match="common field"):
        simplex(2, 2).direct_sum(simplex(3, 2))


@pytest.mark.parametrize(
    "a,expect",
    [
        (3, {0: 1, 8: 29, 16: 451, 24: 31}),
        (4, {0: 1, 16: 61, 32: 1923, 48: 63}),
        (5, {0: 1, 32: 125, 64: 7939, 96: 127}),  # [128, 13]
    ],
)
def test_theorem_4delta_enumerator(a, expect):
    d = 1 << a
    assert expect == {0: 1, d: 4 * d - 3, 2 * d: 8 * d * d - 8 * d + 3, 3 * d: 4 * d - 1}
    code = theorem_4delta(a)
    assert (code.n, code.k) == (4 * d, 2 * a + 3)
    assert code.weight_distribution().as_dict() == expect
    assert code.is_projective()[0]


def test_theorem_4delta_minus1():
    for a, expect in ((1, {0: 1, 2: 9, 4: 19, 6: 3}), (3, {0: 1, 8: 45, 16: 451, 24: 15})):
        d = 1 << a
        assert expect == {0: 1, d: 6 * d - 3, 2 * d: 8 * d * d - 8 * d + 3, 3 * d: 2 * d - 1}
        code = theorem_4delta_minus1(a)
        assert (code.n, code.k) == (4 * d - 1, 2 * a + 3)
        assert code.weight_distribution().as_dict() == expect


def test_reed_muller_enumerator():
    for q, k in ((2, 4), (2, 5), (3, 3)):
        code = reed_muller(q, k)
        assert (code.n, code.k) == (q ** (k - 1), k)
        expect = {0: 1, (q - 1) * q ** (k - 2): q**k - q, q ** (k - 1): q - 1}
        assert code.weight_distribution().as_dict() == expect


def test_power_moments_binary_closed_forms(fixture_codes):
    # first three binary power moments with B1 = B2 = 0, on the q=2 corpus
    for _, code, _ in fixture_codes:
        if code.q != 2:
            continue
        a = code.weight_distribution().as_dict()
        n, k = code.n, code.k
        assert power_moment(a, 0) == 2**k
        assert power_moment(a, 1) == 2 ** (k - 1) * n
        assert power_moment(a, 2) == 2 ** (k - 2) * n * (n + 1)
        b = dual_distribution(a, n, 2, k)
        assert power_moment(a, 3) == 2 ** (k - 3) * (n * n * (n + 3) - 6 * b[3])


def test_power_moments_general_first_moment(fixture_codes):
    for _, code, _ in fixture_codes:
        a = code.weight_distribution().as_dict()
        q, n, k = code.params()
        assert power_moment(a, 1) == q ** (k - 1) * n * (q - 1)


def test_col_mult_b2_identity():
    # ternary 2-fold repetition: m_2 classes feed B2 = sum (q-1) C(i,2) m_i
    rows = [r + r for r in simplex(3, 2).generator.to_rows()]
    rep = LinearCode(GF3, FieldMatrix.from_rows(GF3, rows))
    flag, mult = rep.is_projective()
    assert not flag
    b = dual_distribution(rep.weight_distribution().as_dict(), rep.n, 3, rep.k)
    expect_b2 = sum(2 * (i * (i - 1) // 2) * c for i, c in mult.as_dict().items())
    assert b[2] == expect_b2
    assert b[1] == 0  # full-length

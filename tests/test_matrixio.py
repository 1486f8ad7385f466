from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threeweight.code import LinearCode
from threeweight.errors import CodesError, InvalidArgument, ParseError
from threeweight.gfmat import FieldMatrix, PrimeField
from threeweight.matrixio import parse_matrix_file, parse_matrix_text, serialize_matrix

from conftest import data_path, matrix_files


def test_parse_small_fixture():
    code = parse_matrix_file(data_path("matrices/q2_n004_k03_w1_2_3.txt"))
    assert code.params() == (2, 4, 3)


def test_path_must_be_a_str_or_path():
    assert parse_matrix_file(str(data_path("matrices/q2_n004_k03_w1_2_3.txt"))).params() == (2, 4, 3)
    for path in (0, 3, b"m.txt", None):  # `open` would read an int as a file descriptor
        with pytest.raises(InvalidArgument, match="must be a str or path"):
            parse_matrix_file(path)


@pytest.mark.parametrize("make", [
    lambda d: d / "missing.txt",
    lambda d: d,
    lambda d: (d / "utf16.txt").write_text("q=2\n101\n", encoding="utf-16") and d / "utf16.txt",
], ids=["missing", "directory", "not-utf8"])
def test_read_errors_match_the_pathlib_route(tmp_path, make):
    # the messages read exactly as when the file was read by Path.read_text
    path = make(tmp_path)
    try:
        Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        expected = f"cannot read {path}: {exc.strerror or exc}"
    except UnicodeDecodeError as exc:
        expected = f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
    for arg in (path, str(path)):
        with pytest.raises(ParseError) as info:
            parse_matrix_file(arg)
        assert str(info.value) == expected


def test_parse_ternary_block():
    code = parse_matrix_text("001\n112\n210\n")
    assert code.params() == (3, 3, 3)


def test_q_inferred_from_alphabet():
    assert parse_matrix_text("01\n10\n").q == 2
    assert parse_matrix_text("012\n121\n").q == 3


def test_digit_out_of_range():
    with pytest.raises(ParseError):
        parse_matrix_text("q=3\n014\n112\n")


def test_header_shape_mismatch():
    with pytest.raises(ParseError):
        parse_matrix_text("q=2 n=5 k=2\n0101\n1010\n")
    with pytest.raises(ParseError):
        parse_matrix_text("q=2 n=4 k=3\n0101\n1010\n")


def test_ragged_rows_rejected():
    with pytest.raises(ParseError):
        parse_matrix_text("0101\n101\n")


def test_rank_deficient_rejected():
    with pytest.raises(InvalidArgument, match="rank"):
        parse_matrix_text("0101\n0101\n")


def test_whitespace_and_stray_bracket_tolerated():
    code = parse_matrix_text("1 0 1\n0 1   1]\n")
    assert code.params() == (2, 3, 2)
    with pytest.raises(ParseError):
        parse_matrix_text("101\n01]1\n")  # embedded garbage is an error


def test_every_fixture_parses(fixture_codes):
    assert len(fixture_codes) == 74
    q2 = sum(1 for _, c, _ in fixture_codes if c.q == 2)
    assert q2 == 61 and len(fixture_codes) - q2 == 13


def test_packed_rows_match_from_rows_on_every_fixture():
    # the parser packs each digit row itself; from_rows packs the same rows
    # read here as integers, header and comments aside
    paths = matrix_files()
    assert len(paths) == 74
    for path in paths:
        rows = [
            [int(c) for c in line if c.isdigit()]
            for line in path.read_text("utf-8").splitlines()
            if line.strip() and not line.startswith(("#", "q="))
        ]
        code = parse_matrix_file(path)
        assert code.generator == FieldMatrix.from_rows(code.field, rows), path.name


def test_shipped_transcription_artifacts_survive():
    wrapped = data_path("matrices/q2_n032_k06_w12_16_20.txt").read_text("utf-8")
    assert " " in wrapped.splitlines()[-1]  # embedded space kept verbatim
    stray = data_path("matrices/q3_n027_k06_w15_18_21.txt").read_text("utf-8")
    assert stray.rstrip().endswith("]")  # stray bracket kept verbatim


def test_serialize_round_trip():
    code = parse_matrix_file(data_path("matrices/q3_n009_k04_w3_6_9.txt"))
    again = parse_matrix_text(serialize_matrix(code))
    assert again.generator == code.generator


def test_no_code_has_two_digit_entries():
    # the format holds one digit per entry; serialize_matrix relies on the
    # field gate to keep every entry below 10
    with pytest.raises(InvalidArgument, match="field order 11: only GF"):
        PrimeField(11)


_TOKENS = [*"0123456789", " ", "\t", "\n", "#", "]", "q=", "n=", "k="]


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(st.lists(st.sampled_from(_TOKENS), max_size=40).map("".join))
def test_parse_fuzz_ends_in_a_code_or_a_codes_error(text):
    try:
        code = parse_matrix_text(text)
    except CodesError:
        return
    assert isinstance(code, LinearCode)
    again = parse_matrix_text(serialize_matrix(code))
    assert (again.q, again.generator) == (code.q, code.generator)


@pytest.mark.parametrize("row", ["1²0", "1٣0", "0１1"])
def test_non_ascii_digits_rejected(row):
    # superscript two, Arabic-Indic three and fullwidth one all pass
    # str.isdigit(); only ASCII 0-9 are matrix entries
    with pytest.raises(ParseError):
        parse_matrix_text(f"101\n{row}\n")


def test_non_ascii_header_digits_rejected():
    with pytest.raises(ParseError):
        parse_matrix_text("q=٣\n012\n121\n")

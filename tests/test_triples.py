"""The triple lists of `threeweight.triples` against the per-length window
loop of `triples_oracles`, length by length."""

from __future__ import annotations

import pytest

from threeweight.feasibility import SCAN_START, weight_triples
from threeweight.triples import _pairs, binary_triples, ternary_triples

from triples_oracles import window_triples


def _by_length(n_min, n_max, midpoint):
    return {n: list(window_triples(2, n, midpoint)) for n in range(n_min + n_min % 2, n_max + 1, 2)}


@pytest.mark.parametrize("midpoint,total", [(True, 27_576), (False, 17_146)])
def test_binary_triples_match_the_window_loop_to_1022(midpoint, total):
    """Every m = n/2 <= 511, each length's list equal to the loop's, in its
    (w1, w2) order."""
    got = list(binary_triples(1, 1023, midpoint))
    assert got == list(_by_length(2, 1022, midpoint).items())
    assert sum(len(triples) for _, triples in got) == total


def test_scan_triples_match_the_window_loop_to_4095():
    got = list(binary_triples(SCAN_START, 4095, midpoint=False))
    assert got == list(_by_length(SCAN_START, 4095, False).items())
    assert sum(len(triples) for n, triples in got if n <= 1022) == 16_974
    assert sum(len(triples) for _, triples in got) == 128_804


@pytest.mark.parametrize("n_min,n_max", [
    (1, 1), (2, 2), (4, 4), (5, 4), (-7, 9), (127, 129), (128, 128), (129, 131), (255, 1029), (300, 700),
])
def test_a_subrange_lists_what_the_whole_range_lists(n_min, n_max):
    """A range starting inside a dyadic block of m or across blocks, a
    single length and an empty range: the lengths and lists the whole range
    gives there."""
    for midpoint in (True, False):
        whole = dict(binary_triples(1, 1100, midpoint))
        want = [(n, whole[n]) for n in range(max(n_min, 2), n_max + 1) if n % 2 == 0]
        assert list(binary_triples(n_min, n_max, midpoint)) == want


def test_binary_triples_stream_block_by_block():
    """The first length comes after the pairs of its dyadic block alone: no
    list of a longer block, and no pair that enters past the block, is built
    first."""
    n, triples = next(binary_triples(SCAN_START, 10**9, midpoint=False))
    assert (n, triples) == (SCAN_START, list(window_triples(2, SCAN_START, False)))


def test_pairs_are_listed_once_per_dyadic_block(monkeypatch):
    """m = 36..2047 spans the six blocks from 2^5 to 2^10, and each lists
    its pairs in one pass."""
    ends = []
    monkeypatch.setattr("threeweight.triples._pairs", lambda end, midpoint: ends.append(end) or _pairs(end, midpoint))
    for _ in binary_triples(72, 4095, False):
        pass
    assert ends == [63, 127, 255, 511, 1023, 2047]


def test_ternary_triples_match_the_window_loop():
    for n in range(1, 244):
        triples = list(ternary_triples(n))
        assert triples == list(window_triples(3, n)), n
        # a subsequence of every triple of the length, in its order
        everything = iter(weight_triples(3, n))
        assert all(t in everything for t in triples), n

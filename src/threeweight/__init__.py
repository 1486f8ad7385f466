"""Exact-arithmetic toolkit for projective three-weight codes whose weights
satisfy w1 + w2 + w3 = 3n(q-1)/q, the strongly walk-regular coset graphs
they induce, their triple sum sets, and the bounded integral-point searches
on the associated plane curves."""

from .code import LinearCode, WeightDistribution
from .gfmat import GF2, GF3, FieldMatrix, PrimeField
from .matrixio import parse_matrix_file, parse_matrix_text

__all__ = [
    "GF2",
    "GF3",
    "FieldMatrix",
    "LinearCode",
    "PrimeField",
    "WeightDistribution",
    "parse_matrix_file",
    "parse_matrix_text",
]

__version__ = "0.1.0"

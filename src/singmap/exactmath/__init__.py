"""Exact arithmetic foundation: the ring Q[i, sqrt2, sqrt5], sparse exact
polynomials, sparse integer elimination, and the polynomial text format."""

from .ring import ExactScalar, HALF, I, ONE, SQRT2, SQRT5, SQRT10, ZERO
from .poly import BivariatePoly, Factorizations, MultiPoly, Powers, grlex_key
from .linalg import in_span, insert_row, kernel_vector, nullspace_basis, rref
from .textform import (
    format_bivariate,
    format_multi,
    format_terms,
    parse_bivariate,
    parse_multi,
    parse_terms,
)

__all__ = [
    "ExactScalar",
    "BivariatePoly",
    "MultiPoly",
    "Factorizations",
    "Powers",
    "ZERO",
    "ONE",
    "I",
    "SQRT2",
    "SQRT5",
    "SQRT10",
    "HALF",
    "grlex_key",
    "kernel_vector",
    "nullspace_basis",
    "rref",
    "insert_row",
    "in_span",
    "parse_bivariate",
    "parse_multi",
    "parse_terms",
    "format_bivariate",
    "format_multi",
    "format_terms",
]

"""Exact integration of 1/(z(z-a_1)...(z-a_q)) as a formal series at infinity.

The package computes the antiderivative of 1/Q two independent ways (a
root-free expansion and a partial-fraction log-series sum) over exact
rational arithmetic, verifies the Vandermonde and symmetric-function
identities its coefficients satisfy, and demonstrates the shrinking-root
limit toward -1/(q z^q).
"""

from .asymptotics import ScaleRow, scaling_limit_table
from .integrate import (
    MomentIdentityRow,
    PartialFractions,
    RootConfig,
    check_moment_identities,
    integrate_via_expansion,
    integrate_via_partial_fractions,
    moment,
    partial_fractions,
)
from .parser import (
    PolyParseError,
    format_rational,
    parse_factored_denominator,
    parse_poly,
    parse_rational,
)
from .polynomial import Poly, Rat
from .series import INFINITY, InvZSeries, NotIntegrableInRing
from .symmetric import (
    ExactCheckError,
    SymmetricTable,
    complete_homogeneous,
    determinant,
    generalized_vandermonde,
    vandermonde_matrix,
    vandermonde_product,
)

__version__ = "0.1.0"

__all__ = [
    "ExactCheckError",
    "INFINITY",
    "InvZSeries",
    "MomentIdentityRow",
    "NotIntegrableInRing",
    "PartialFractions",
    "Poly",
    "PolyParseError",
    "Rat",
    "RootConfig",
    "ScaleRow",
    "SymmetricTable",
    "check_moment_identities",
    "complete_homogeneous",
    "determinant",
    "format_rational",
    "generalized_vandermonde",
    "integrate_via_expansion",
    "integrate_via_partial_fractions",
    "moment",
    "parse_factored_denominator",
    "parse_poly",
    "parse_rational",
    "partial_fractions",
    "scaling_limit_table",
    "vandermonde_matrix",
    "vandermonde_product",
]

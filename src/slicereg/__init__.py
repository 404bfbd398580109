"""Exact computational toolkit for slice regular polynomial functions
over the quaternions and over the split algebra H + H.

The package computes the automorphism invariants of such functions
(trace, norm, central divisor), decides equivalence under pointwise
automorphism conjugation, searches for and verifies explicit polynomial
intertwiners, classifies automorphism orbits in the complexified algebra,
and checks the transcendental rotation identity on exactly truncated
power series: double-precision errors at sample points against a
tolerance, with the truncation tail bounds reported but not used.

All core arithmetic is exact (arbitrary-precision rationals); floating
point is confined to the `series` evaluation layer.
"""

from .algebra import (ONE, QI, QJ, QK, CQuat, Quaternion, R3Elem, SO3Matrix,
                      aut_to_matrix, bform, conj_by_unit)
from .equiv import (ConjugatorReport, EquivVerdict, InvariantBundle,
                    OrbitClass, OrbitScanReport, R3EquivVerdict,
                    classify_orbit, equivalent, find_intertwiner, invariants,
                    normalize_intertwiner, orbit_equivalent,
                    pointwise_orbit_scan, r3_equivalent, verify_conjugator)
from .errors import (BothZeroError, LimitExceededError,
                     NearSingularSampleError, NotInWError, ParseError,
                     PolyDivisionByZeroError, SliceRegError,
                     SlicePreservingError, UnitNotAllowedError,
                     VariableInPointError, ZeroAlphaError, ZeroDivisorError,
                     ZeroFunctionError, ZeroInputError, ZeroInverseError,
                     ZeroPolynomialError)
from .parsing import (parse_expr, parse_point, parse_r3_point, parse_r3_stem,
                      parse_stem, render_cquat, render_poly, render_quat,
                      render_stem)
from .poly import Matrix, Poly, poly_gcd, poly_gcd_many, vanishing_order
from .scalars import IOTA, GaussRat, Rat
from .series import (DEFAULT_ORDER, DEFAULT_SAMPLES, DEFAULT_TOL,
                     ConjugationReport, CQuatF, EvalResult, TruncSeries,
                     check_conjugation_identity, numeric_roots, taylor_series)
from .stem import SLICE_PRESERVING, Divisor, R3StemPoly, StemPoly, Z

__version__ = "0.1.0"

__all__ = [
    "CQuat", "CQuatF", "ConjugationReport", "ConjugatorReport",
    "DEFAULT_ORDER", "DEFAULT_SAMPLES", "DEFAULT_TOL", "Divisor",
    "EquivVerdict", "EvalResult", "GaussRat", "IOTA", "InvariantBundle",
    "Matrix", "ONE", "OrbitClass", "OrbitScanReport", "ParseError", "Poly",
    "QI", "QJ", "QK", "Quaternion", "R3Elem", "R3EquivVerdict", "R3StemPoly",
    "Rat", "SLICE_PRESERVING", "SO3Matrix", "SliceRegError",
    "SlicePreservingError", "StemPoly", "TruncSeries", "Z",
    "aut_to_matrix", "bform", "check_conjugation_identity", "classify_orbit",
    "conj_by_unit", "equivalent", "find_intertwiner", "invariants",
    "normalize_intertwiner", "numeric_roots", "orbit_equivalent",
    "parse_expr", "parse_point", "parse_r3_point", "parse_r3_stem",
    "parse_stem", "pointwise_orbit_scan", "poly_gcd", "poly_gcd_many",
    "r3_equivalent", "render_cquat", "render_poly", "render_quat",
    "render_stem", "taylor_series", "vanishing_order", "verify_conjugator",
    "BothZeroError", "LimitExceededError", "NearSingularSampleError",
    "NotInWError", "PolyDivisionByZeroError", "UnitNotAllowedError",
    "VariableInPointError", "ZeroAlphaError", "ZeroDivisorError",
    "ZeroFunctionError", "ZeroInputError", "ZeroInverseError",
    "ZeroPolynomialError",
]

"""Truncated power series with exact quaternion coefficients, plus the
double-precision evaluation layer used for transcendental checks.

A `TruncSeries` is a stem cut to an order: sum_{k<N} z^k a_k modulo z^N,
held exactly as a `StemPoly` of degree below N (four rational component
polynomials) plus N.  Ring operations run on the stems, through the same
component kernels as `stem.py`, and cut the result to the smaller operand
order, so they agree with the full stem operations below it.

Floats appear in exactly one place: `eval_numeric` and the conjugation
identity check, whose values are `CQuatF`, the float instance of the
quaternion class.  Every approximate comparison carries an explicit
tolerance, and evaluations report a truncation tail bound

    |tail| <= sum_{k>=N} |a_k| |q|^k

computed from a factorial majorant |a_k| <= C * A^k / k! tracked through
the series operations.  For entire-function builders (cos, sin, exp and
their half-argument variants) the builder supplies the majorant, and a
series built from coefficients gets a majorant of them; series that are
plain polynomials report a zero tail.  The bounds are reported beside
the tolerance checks but do not decide them.  For evaluation points that
are neither central nor real quaternions the bound uses sqrt(2)*|q|
since the euclidean norm on the complexified algebra is only
sqrt(2)-submultiplicative.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

from .algebra import CQuat, Quaternion, QuaternionBase, _horner_left
from .errors import NearSingularSampleError, SliceRegError
from .poly import Poly
from .scalars import RATIONAL_TYPES, Frozen, GaussRat, Record
from .stem import StemPoly

DEFAULT_ORDER = 40
DEFAULT_TOL = 1e-9
# Published sample grid for identity checks: 5 points, |z| <= 1.5.
DEFAULT_SAMPLES = (0.3 + 0j, 1.0 + 0j, -0.7 + 0j, 0.5 + 0.5j, -1.2j)


class TruncSeries(Frozen):
    """sum_{k<order} z^k a_k, exact modulo z^order: a stem of degree
    below the order, plus the order."""

    __slots__ = ("order", "stem", "majorant", "is_polynomial")

    def __init__(self, order: int, coeffs, majorant=None,
                 is_polynomial: bool = True):
        """coeffs is a StemPoly or at most `order` coefficients (quaternions
        or rationals); the majorant defaults to theirs (`_majorant`)."""
        if order < 1:
            raise ValueError("order must be at least 1")
        if isinstance(coeffs, StemPoly):
            too_many = coeffs.degree >= order
        else:
            coeffs = list(coeffs)
            too_many = len(coeffs) > order
            coeffs = StemPoly(coeffs)
        if too_many:
            raise ValueError("more coefficients than the order admits")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "stem", coeffs)
        if majorant is None:
            majorant = _majorant(coeffs)
        object.__setattr__(self, "majorant", (float(majorant[0]), float(majorant[1])))
        object.__setattr__(self, "is_polynomial", bool(is_polynomial))

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value, order: int) -> "TruncSeries":
        return cls(order, (value,))

    @property
    def coeffs(self) -> tuple:
        """The quaternion coefficients, padded with zeros to the order."""
        coeffs = self.stem.coeffs
        return coeffs + (Quaternion(),) * (self.order - len(coeffs))

    def coeff(self, k: int) -> Quaternion:
        return self.stem.coeff(k)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = _series_operand(other, self.order)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order)
        c1, a1 = self.majorant
        c2, a2 = other.majorant
        return TruncSeries(n, _cut(self.stem + other.stem, n),
                           (c1 + c2, max(a1, a2)),
                           self.is_polynomial and other.is_polynomial)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.order, -self.stem, self.majorant,
                           self.is_polynomial)

    def __sub__(self, other):
        other = _series_operand(other, self.order)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _series_operand(other, self.order)
        if other is None:
            return NotImplemented
        return other + (-self)

    def star(self, other) -> "TruncSeries":
        other = _series_operand(other, self.order)
        if other is None:
            raise TypeError("star expects a series or a coefficient")
        n = min(self.order, other.order)
        product = _cut(self.stem, n).star(_cut(other.stem, n))
        c1, a1 = self.majorant
        c2, a2 = other.majorant
        polynomial = (self.is_polynomial and other.is_polynomial
                      and self.stem.degree + other.stem.degree < n)
        return TruncSeries(n, _cut(product, n), (c1 * c2, a1 + a2),
                           polynomial)

    def __mul__(self, other):
        if isinstance(other, (TruncSeries, Quaternion) + RATIONAL_TYPES):
            return self.star(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return self.star(other)
        if isinstance(other, Quaternion):
            return TruncSeries.constant(other, self.order).star(self)
        return NotImplemented

    def conj(self) -> "TruncSeries":
        return TruncSeries(self.order, self.stem.conj(), self.majorant,
                           self.is_polynomial)

    def trace(self) -> "TruncSeries":
        c, a = self.majorant
        return TruncSeries(self.order, self.stem + self.stem.conj(),
                           (2 * c, a), self.is_polynomial)

    def norm(self) -> "TruncSeries":
        return self.star(self.conj())

    # -- numeric evaluation -----------------------------------------------------

    def tail_bound(self, radius: float) -> float:
        """Upper bound for the dropped tail at evaluation radius |q|;
        infinite when the bound overflows a float."""
        if self.is_polynomial:
            return 0.0
        c, a = self.majorant
        s = a * radius
        if c == 0.0 or s == 0.0:
            return 0.0
        # sum_{k>=N} s^k/k! <= (s^N/N!) e^s, computed in log space.
        log_term = self.order * math.log(s) - math.lgamma(self.order + 1)
        try:
            return c * math.exp(log_term + s) if c < math.inf else c
        except OverflowError:
            return math.inf

    def eval_numeric(self, q) -> "EvalResult":
        """Horner evaluation in double precision, with its tail bound: the
        steps of `algebra._horner_left` are the quaternion products and
        sums of `CQuatF`, so the value is the same to the bit."""
        q = CQuatF.coerce(q)
        den = self.stem.den
        acc = CQuatF(*_horner_left(q.components(), [
            [complex(x / den) for x in xs] for xs in self.stem.nums]))
        radius = q.euclid()
        if not (q.is_central or q.is_real_quaternion):
            radius *= math.sqrt(2.0)
        return EvalResult(acc, self.tail_bound(radius))

    # -- comparison / display ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            return self.order == other.order and self.stem == other.stem
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.stem))

    def __repr__(self):
        return f"TruncSeries({self.order}, {list(self.coeffs)!r})"


def _cut(stem: StemPoly, order: int) -> StemPoly:
    """The stem modulo z^order."""
    if stem.degree < order:
        return stem
    return StemPoly._from_rows([xs[:order] for xs in stem.nums], stem.den)


def _majorant(stem: StemPoly):
    """(C, A) with |a_k| <= C * A**k / k! for the stem's coefficients:
    (|a_0|, 0) for a constant, else (max |a_k| * k!, 1), or C = inf."""
    try:
        c = max((math.hypot(*(x / stem.den for x in a)) * math.factorial(k)
                 for k, a in enumerate(zip_longest(*stem.nums, fillvalue=0))),
                default=0.0)
    except OverflowError:
        c = math.inf
    return c, float(stem.degree > 0)


def _series_operand(value, order):
    if isinstance(value, TruncSeries):
        return value
    if isinstance(value, (Quaternion,) + RATIONAL_TYPES):
        return TruncSeries.constant(value, order)
    return None


_BUILDERS = ("cos", "sin", "exp", "cos_half", "sin_half")


def taylor_series(kind: str, order: int) -> TruncSeries:
    """Exact rational Taylor coefficients of the named entire function."""
    if kind not in _BUILDERS:
        raise ValueError(f"unknown series kind {kind!r}; choose from {_BUILDERS}")
    if order < 1:
        raise ValueError("order must be at least 1")
    half = kind.endswith("_half")
    base = kind.removesuffix("_half")
    coeffs = []
    for k in range(order):
        if base == "exp":
            c = Fraction(1, math.factorial(k))
        elif base == "cos":
            c = Fraction((-1) ** (k // 2), math.factorial(k)) if k % 2 == 0 else Fraction(0)
        else:  # sin
            c = Fraction((-1) ** ((k - 1) // 2), math.factorial(k)) if k % 2 == 1 else Fraction(0)
        if half:
            c *= Fraction(1, 2 ** k)
        coeffs.append(Quaternion(c))
    return TruncSeries(order, coeffs, (1.0, 0.5 if half else 1.0), False)


class CQuatF(QuaternionBase):
    """A quaternion with double-precision complex coordinates: the
    numeric image of the complexified algebra, for evaluation only.
    Exact quaternions promote into it coordinate by coordinate."""

    __slots__ = ()
    _coord = staticmethod(complex)
    _scalars = (int, float, complex, Fraction)
    # Promotion rounds, so `==` takes only CQuatF and scalars (exactly).
    _promotes = (Quaternion, CQuat)

    @classmethod
    def _operand(cls, value):
        # A Gaussian scalar enters arithmetic as complex(re, im); it
        # rounds, so `==` does not take it.
        if isinstance(value, GaussRat):
            return cls(value)
        return super()._operand(value)

    @property
    def is_real_quaternion(self) -> bool:
        return all(c.imag == 0.0 for c in self.components())

    def euclid(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.components()))

    def distance(self, other: "CQuatF") -> float:
        return max(abs(a - b) for a, b in zip(self.components(),
                                              other.components()))


class EvalResult(Record):
    value: CQuatF
    tail_bound: float

    def __iter__(self):
        return iter((self.value, self.tail_bound))


class IdentityCheck(Record):
    sample: complex
    value_error: float
    trace_error: float
    norm_error: float
    tail_bound: float
    passed: bool


class ConjugationReport(Record):
    tol: float
    checks: tuple

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def check_conjugation_identity(first: TruncSeries, second: TruncSeries,
                               conjugator: TruncSeries,
                               samples=DEFAULT_SAMPLES,
                               tol: float = DEFAULT_TOL) -> ConjugationReport:
    """Check conjugator(z)**-1 * first(z) * conjugator(z) = second(z)
    numerically on the samples, within tol; trace and norm of the two
    sides are compared as well.

    Raises NearSingularSampleError, whatever tol is, where the conjugator's
    value h is 0 or |norm(h)| < 2**-52 |h|**2: too near singular to invert.
    """
    checks = []
    for z in samples:
        zq = CQuatF(complex(z))
        try:
            fv, f_tail = first.eval_numeric(zq)
            gv, g_tail = second.eval_numeric(zq)
            hv, h_tail = conjugator.eval_numeric(zq)
            norm_h, size = hv.norm(), hv.euclid() ** 2
            if not size or abs(norm_h) < 2 ** -52 * size:
                raise NearSingularSampleError(
                    f"conjugator at {z} is singular to double precision: "
                    f"|norm| {abs(norm_h):.3e}, |value|^2 {size:.3e}")
            moved = hv.inverse() * fv * hv
            value_error = moved.distance(gv)
            trace_error = abs(2 * moved.c0 - 2 * gv.c0)
            norm_error = abs(moved.norm() - gv.norm())
            tail = f_tail + g_tail + h_tail
        except OverflowError:
            # A magnitude beyond the double range: the errors cannot be
            # computed, so the sample fails.
            value_error = trace_error = norm_error = tail = math.inf
        passed = (value_error <= tol and trace_error <= tol
                  and norm_error <= tol)
        checks.append(IdentityCheck(complex(z), value_error, trace_error,
                                    norm_error, tail, passed))
    return ConjugationReport(tol, tuple(checks))


def numeric_roots(p: Poly) -> list[complex]:
    """Approximate roots of an exact polynomial, for display only."""
    try:
        import numpy as np
    except ImportError as exc:
        raise SliceRegError("approximate roots need numpy, which is not "
                            "installed") from exc

    if p.degree < 1:
        return []
    desc = [complex(c) for c in reversed(p.coeffs)]
    roots = np.roots(desc)
    return sorted((complex(r) for r in roots), key=lambda r: (r.real, r.imag))


def parse_samples(text: str) -> tuple:
    """Parse a comma- or space-separated list of complex samples.

    Accepts python complex syntax with either i or j as the imaginary
    suffix, e.g. "0.3, 1, -0.7, 0.5+0.5i, -1.2i", in ASCII digits only.
    """
    out = []
    for chunk in text.replace(",", " ").split():
        if not chunk.isascii():  # complex() would read '١' as 1
            raise ValueError(f"bad sample {chunk!r}")
        try:
            out.append(complex(chunk.replace("i", "j")))
        except ValueError as exc:
            raise ValueError(f"bad sample {chunk!r}") from exc
    if not out:
        raise ValueError("no samples given")
    return tuple(out)

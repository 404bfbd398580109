"""Stem polynomials with quaternion coefficients and their calculus.

A `StemPoly` is a polynomial F(z) = sum_k z^k * a_k with real quaternion
coefficients a_k.  Read over the complexification it is a stem function
C -> H_C satisfying the reality condition F(conj z) = complex-conj F(z)
(structural here: the coefficients are real quaternions by type).  Read
with a quaternionic variable it is the slice regular polynomial
f(q) = sum_k q^k * a_k, coefficients on the right.

A stem is stored as its four component polynomials: F = c0 + c1 i +
c2 j + c3 k with c0..c3 in Q[z], `parts = (c0, c1, c2, c3)`.  The
quaternion coefficients a_k are a derived view (`coeffs`).  With the
coefficientwise quaternionic conjugation F^c = c0 - c1 i - c2 j - c3 k,

    trace(F) = F + F^c = 2 c0                    (a rational polynomial)
    norm(F)  = F * F^c = c0^2 + c1^2 + c2^2 + c3^2  (multiplicative)
    hat(F)   = (F - F^c) / 2 = c1 i + c2 j + c3 k   (the trace-free part,
               with norm(F) = trace(F)^2/4 + norm(hat(F)))

since the imaginary parts of F * F^c cancel in pairs.

The product is coefficient convolution (`star`), which is exactly the
pointwise product of the stem functions since z is central.  It runs on
the parts (`_star_ints`): both operands are scaled to integer component
lists over one common denominator, and each of the eight components is
packed once into one big integer (Kronecker substitution, at one digit
width wide enough for every digit of the result).  The sixteen products
of packed components are accumulated, with the signs of the quaternion
unit table, into four packed sums; each sum is unpacked once, and the
four results are divided once by the product of the two denominators.

The center / trace-free split F = (F', F'') is simply `parts`: F' = c0,
and F'' = (c1, c2, c3) over (i, j, k).  The central divisor of a
non-slice-preserving F is the vanishing divisor of F'': the common zeros
of c1, c2, c3 with multiplicity the minimum of their vanishing orders.
It is represented exactly by a monic polynomial, gcd(c1, c2, c3), which
the decision replaces by the primitive integer gcd with positive leading
coefficient; no root extraction is ever needed.

Central divisors are *not* functorial: cdiv(F * G) need not equal
cdiv(F) + cdiv(G) (the tests keep a witness), but they are invariant
under pointwise conjugation by invertible elements.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .algebra import UNIT_PRODUCTS, CQuat, Pair, Quaternion, R3Elem
from .errors import SlicePreservingError, ZeroFunctionError
from .poly import (Poly, _digit_width, _integer_scaled, _max_bits, _pack,
                   _unpack, poly_gcd_many, vanishing_order)
from .scalars import RATIONAL_TYPES, GaussRat, power


class _SlicePreservingMarker:
    """Sentinel used where a central divisor would be undefined."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "SLICE_PRESERVING"


SLICE_PRESERVING = _SlicePreservingMarker()


class Divisor:
    """An effective divisor on C, held as a monic polynomial whose
    vanishing locus (with multiplicity) is the divisor.  The empty
    divisor is the constant 1."""

    __slots__ = ("gcd_poly",)

    def __init__(self, gcd_poly: Poly):
        if gcd_poly.is_zero:
            raise ZeroFunctionError("a divisor polynomial cannot be zero")
        object.__setattr__(self, "gcd_poly", gcd_poly.monic())

    def __setattr__(self, name, value):
        raise AttributeError("Divisor is immutable")

    @classmethod
    def empty(cls) -> "Divisor":
        return cls(Poly((Fraction(1),)))

    @property
    def is_empty(self) -> bool:
        return self.gcd_poly.degree == 0

    @property
    def degree(self) -> int:
        """Total multiplicity."""
        return self.gcd_poly.degree

    def multiplicity(self, z0) -> int:
        return vanishing_order(self.gcd_poly, z0)

    def __add__(self, other):
        """Divisor sum = product of the representing polynomials."""
        if isinstance(other, Divisor):
            return Divisor(self.gcd_poly * other.gcd_poly)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, Divisor):
            return self.gcd_poly == other.gcd_poly
        return NotImplemented

    def __hash__(self):
        return hash(self.gcd_poly)

    def __repr__(self):
        return f"Divisor({self.gcd_poly!r})"

    def __str__(self):
        return str(self.gcd_poly)


class StemPoly:
    """F = c0 + c1 i + c2 j + c3 k, stored as its four component
    polynomials `parts = (c0, c1, c2, c3)` over Q."""

    __slots__ = ("parts",)

    def __init__(self, coeffs=()):
        rows = [Quaternion.coerce(c).components() for c in coeffs]
        object.__setattr__(self, "parts", tuple(
            Poly(tuple(row[r] for row in rows)) for r in range(4)))

    @classmethod
    def _from_parts(cls, parts) -> "StemPoly":
        """The stem with these four component `Poly`s, unchecked."""
        stem = object.__new__(cls)
        object.__setattr__(stem, "parts", tuple(parts))
        return stem

    def __setattr__(self, name, value):
        raise AttributeError("StemPoly is immutable")

    @classmethod
    def constant(cls, value) -> "StemPoly":
        return cls((value,))

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "StemPoly":
        return cls((0,) * degree + (coeff,))

    @property
    def is_zero(self) -> bool:
        return not any(p.coeffs for p in self.parts)

    @property
    def degree(self) -> int:
        return max(len(p.coeffs) for p in self.parts) - 1

    @property
    def coeffs(self) -> tuple:
        """The quaternion coefficients, ascending, with no trailing zero."""
        return tuple(self.coeff(k) for k in range(self.degree + 1))

    def coeff(self, k: int) -> Quaternion:
        return Quaternion(*(p.coeff(k) for p in self.parts))

    # -- ring structure -------------------------------------------------------

    def __add__(self, other):
        other = _stem_operand(other)
        if other is None:
            return NotImplemented
        return StemPoly._from_parts(
            a + b for a, b in zip(self.parts, other.parts))

    __radd__ = __add__

    def __neg__(self):
        return StemPoly._from_parts(-p for p in self.parts)

    def __sub__(self, other):
        other = _stem_operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _stem_operand(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def star(self, other) -> "StemPoly":
        """The product, with quaternion products taken in operand order
        (equals the pointwise stem product); computed on integer-scaled
        component lists as the module docstring describes."""
        other = _stem_operand(other)
        if other is None:
            raise TypeError("star expects a stem polynomial or a coefficient")
        left, left_den = _integer_parts(self.parts)
        right, right_den = _integer_parts(other.parts)
        den = left_den * right_den
        return StemPoly._from_parts(
            Poly(tuple(Fraction(x, den) if x else _ZERO for x in comp))
            for comp in _star_ints(left, right))

    def __mul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return StemPoly._from_parts(p * other for p in self.parts)
        if isinstance(other, (StemPoly, Quaternion)):
            return self.star(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return self * other
        if isinstance(other, Quaternion):
            return StemPoly.constant(other).star(self)
        return NotImplemented

    def __pow__(self, exponent: int):
        return power(self, exponent, StemPoly.constant(1), StemPoly.star)

    # -- conjugation and invariants ----------------------------------------------

    def conj(self) -> "StemPoly":
        """Coefficientwise quaternionic conjugation; (F*G)^c = G^c * F^c."""
        c0, c1, c2, c3 = self.parts
        return StemPoly._from_parts((c0, -c1, -c2, -c3))

    def trace(self) -> Poly:
        return self.parts[0] * 2

    def norm(self) -> Poly:
        """norm(F) = F * F^c, a central (rational) polynomial: the packed
        sum of squares `_packed_norm`, unpacked and divided by den**2."""
        parts, den = _integer_parts(self.parts)
        n = max(map(len, parts))
        if not n:
            return Poly()
        total, width = _packed_norm(parts, max(map(_max_bits, parts)), n)
        den *= den
        return Poly(tuple(Fraction(x, den) if x else _ZERO
                          for x in _unpack(total, 2 * n - 1, width)))

    def hat(self) -> "StemPoly":
        """The trace-free reduction (F - F^c) / 2."""
        return StemPoly._from_parts((Poly(),) + self.parts[1:])

    def is_slice_preserving(self) -> bool:
        return not any(p.coeffs for p in self.parts[1:])

    def central_divisor(self) -> Divisor:
        """The vanishing divisor of the trace-free part, as a monic gcd."""
        if self.is_slice_preserving():
            raise SlicePreservingError(
                "central divisor undefined for slice preserving functions")
        return Divisor(poly_gcd_many(self.parts[1:]))

    def remove_central_divisor(self):
        """Factor F = lam * Ftilde with empty cdiv(Ftilde).

        Requires trace(F) = 0 and F nonzero; lam is the monic divisor
        polynomial and norm(F) = lam**2 * norm(Ftilde).
        """
        if self.is_zero:
            raise ZeroFunctionError("cannot factor the zero function")
        if self.is_slice_preserving():
            raise SlicePreservingError(
                "central divisor undefined for slice preserving functions")
        if not self.trace().is_zero:
            raise ValueError("remove_central_divisor needs a trace-free input")
        lam = self.central_divisor().gcd_poly
        reduced = [Poly()]
        for w in self.parts[1:]:
            q, r = divmod(w, lam)
            if not r.is_zero:
                raise AssertionError("gcd does not divide a component")
            reduced.append(q)
        return lam, StemPoly._from_parts(reduced)

    # -- evaluation ----------------------------------------------------------------

    def eval_stem(self, z0) -> CQuat:
        """Value of the stem function at a point of C."""
        z0 = GaussRat.coerce(z0)
        return CQuat(*(p(z0) for p in self.parts))

    def eval_slice(self, q) -> Quaternion:
        """Value of the slice regular polynomial at a quaternion,
        computed as the direct power sum with right coefficients."""
        q = Quaternion.coerce(q)
        coeffs = self.coeffs
        if not coeffs:
            return Quaternion()
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = q * acc + c
        return acc

    def eval_slice_split(self, q) -> Quaternion:
        """Same value through the center + imaginary-direction route.

        Writing q = x + v with v pure imaginary and norm(v) = n, the powers
        (x + w)^k with w*w = -n split into even and odd parts in w, all with
        rational coefficients, and the value is P + v*B.  Exact, and equal
        to eval_slice for every rational quaternion.
        """
        q = Quaternion.coerce(q)
        x = q.c0
        v = q.imag()
        n = v.norm()
        even, odd = Fraction(1), Fraction(0)
        p_sum = Quaternion()
        b_sum = Quaternion()
        for c in self.coeffs:
            p_sum += c * even
            b_sum += c * odd
            even, odd = even * x - n * odd, even + odd * x
        return p_sum + v * b_sum

    # -- comparison / display ---------------------------------------------------------

    def __eq__(self, other):
        other = _stem_operand(other)
        if other is None:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"StemPoly({list(self.coeffs)!r})"

    def __str__(self):
        from .parsing import render_stem
        return render_stem(self)


def _integer_parts(parts):
    """The four component coefficient lists, scaled to integers over one
    common denominator: (lists, denominator)."""
    nums, den = _integer_scaled([c for p in parts for c in p.coeffs])
    out, start = [], 0
    for p in parts:
        out.append(nums[start:start + len(p.coeffs)])
        start += len(p.coeffs)
    return out, den


def _packed_norm(parts, bits: int, n: int):
    """(N(xi), width): N = c0^2 + c1^2 + c2^2 + c3^2 for integer component
    lists at xi = 2**(8*width).  With entries below 2**bits and lengths at
    most n, a coefficient of a square sums at most n products and 2 more
    bits cover the four squares, so every coefficient of N is below xi/2
    in absolute value and N(xi) determines N."""
    width = _digit_width(2 * bits + n.bit_length() + 2)
    return sum(_pack(p, width) ** 2 for p in parts), width


def _star_ints(left, right):
    """The product of two stems given as integer component lists
    (c0, c1, c2, c3): four integer lists, each of length m + n - 1 for the
    longest components m of `left` and n of `right` (untrimmed), or four
    empty lists when a side has no coefficient.

    A digit of an output component is a sum of four signed convolution
    coefficients, each a sum of at most min(m, n) products of an entry of
    each side; the digit width covers that bound, the 2 extra bits the
    sum of four.
    """
    m, n = max(map(len, left)), max(map(len, right))
    if not m or not n:
        return [[], [], [], []]
    width = _digit_width(_max_bits(chain.from_iterable(left))
                         + _max_bits(chain.from_iterable(right))
                         + min(m, n).bit_length() + 2)
    packed = [_pack(b, width) for b in right]
    sums = [0, 0, 0, 0]
    for s, a in enumerate(left):
        if not a:
            continue
        a = _pack(a, width)
        for t, b in enumerate(packed):
            if b:
                r, sign = UNIT_PRODUCTS[s][t]
                if sign > 0:
                    sums[r] += a * b
                else:
                    sums[r] -= a * b
    return [_unpack(acc, m + n - 1, width) for acc in sums]


_ZERO = Fraction(0)


def _stem_operand(value):
    if isinstance(value, StemPoly):
        return value
    if isinstance(value, (Quaternion,) + RATIONAL_TYPES):
        return StemPoly((value,))
    return None


Z = StemPoly.monomial(1)


class R3StemPoly(Pair):
    """A pair of stem polynomials: a stem function into H_C + H_C.

    All structure is componentwise; invariants come out as ordered pairs.
    """

    __slots__ = ()

    def __init__(self, first, second):
        first = _stem_operand(first)
        second = _stem_operand(second)
        if first is None or second is None:
            raise TypeError("R3StemPoly components must be stem polynomials")
        super().__init__(first, second)

    def star(self, other) -> "R3StemPoly":
        if not isinstance(other, R3StemPoly):
            raise TypeError("star expects another pair")
        return R3StemPoly(self.first.star(other.first),
                          self.second.star(other.second))

    __mul__ = star

    def is_slice_preserving(self):
        return (self.first.is_slice_preserving(),
                self.second.is_slice_preserving())

    def central_divisor(self):
        """Componentwise divisors; slice preserving components are reported
        with the SLICE_PRESERVING marker rather than raising."""
        return tuple(
            SLICE_PRESERVING if f.is_slice_preserving() else f.central_divisor()
            for f in (self.first, self.second))

    def eval_stem(self, z0):
        return (self.first.eval_stem(z0), self.second.eval_stem(z0))

    def eval_slice(self, point, require_cone: bool = False):
        """Componentwise evaluation at a pair of quaternions.

        With require_cone=True the point must lie in the quadratic cone
        (matching componentwise trace and norm), the locus where the pair
        is a point of the classical function domain rather than of its
        natural extension.
        """
        if not isinstance(point, R3Elem):
            raise TypeError("evaluation point must be an R3Elem")
        if not point.is_real:
            raise ValueError("slice evaluation needs real quaternion components")
        if require_cone and not point.in_quadratic_cone():
            raise ValueError("point lies outside the quadratic cone")
        return R3Elem(self.first.eval_slice(point.first),
                      self.second.eval_slice(point.second))

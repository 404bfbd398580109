"""Stem polynomials with quaternion coefficients and their calculus.

A `StemPoly` is a polynomial F(z) = sum_k z^k * a_k with real quaternion
coefficients a_k.  Read over the complexification it is a stem function
C -> H_C satisfying the reality condition F(conj z) = complex-conj F(z)
(structural here: the coefficients are real quaternions by type).  Read
with a quaternionic variable it is the slice regular polynomial
f(q) = sum_k q^k * a_k, coefficients on the right.

The product is coefficient convolution (`star`), which is exactly the
pointwise product of the stem functions since z is central.  It is
computed on components: each operand becomes four integer polynomials
over one common denominator (its 1, i, j, k parts), the sixteen component
products run as big-integer Kronecker products and are summed with the
signs of the quaternion unit table, and the four sums are divided once
by the product of the two denominators.  From the coefficientwise
quaternionic conjugation F^c one gets

    trace(F) = F + F^c        (a rational polynomial)
    norm(F)  = F * F^c        (a rational polynomial, multiplicative)
    hat(F)   = (F - F^c) / 2  (the trace-free reduction, with
                               norm(F) = trace(F)^2/4 + norm(hat(F)))

Writing F = c0 + c1 i + c2 j + c3 k with rational polynomials c0..c3,
the imaginary parts of F * F^c cancel in pairs and its real part is
c0^2 + c1^2 + c2^2 + c3^2, so `norm` computes that sum of squares, four
rational polynomial products and no quaternion convolution.

Splitting values into center + trace-free part W writes F = (F', F'')
with F' rational and F'' a triple of rational polynomials over (i, j, k).
The central divisor of a non-slice-preserving F is the vanishing divisor
of F'': the common zeros of the three W-components with multiplicity the
minimum of their vanishing orders.  It is represented exactly by a monic
polynomial, the gcd of the W-components; equality of divisors is equality
of monic polynomials, and no root extraction is ever needed.

Central divisors are *not* functorial: cdiv(F * G) need not equal
cdiv(F) + cdiv(G) (the tests keep a witness), but they are invariant
under pointwise conjugation by invertible elements.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import UNIT_PRODUCTS, CQuat, Quaternion
from .errors import SlicePreservingError, ZeroFunctionError
from .poly import (Poly, _integer_scaled, _kronecker, poly_gcd_many,
                   vanishing_order)
from .scalars import GaussRat

_SCALARS = (int, Fraction)


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


class SplitStem:
    """The center / trace-free decomposition of a stem polynomial."""

    __slots__ = ("center", "w1", "w2", "w3")

    def __init__(self, center: Poly, w1: Poly, w2: Poly, w3: Poly):
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "w3", w3)

    def __setattr__(self, name, value):
        raise AttributeError("SplitStem is immutable")

    def w_polys(self):
        return (self.w1, self.w2, self.w3)

    def reassemble(self) -> "StemPoly":
        n = max(len(self.center.coeffs), len(self.w1.coeffs),
                len(self.w2.coeffs), len(self.w3.coeffs))
        return StemPoly(Quaternion(self.center.coeff(k), self.w1.coeff(k),
                                   self.w2.coeff(k), self.w3.coeff(k))
                        for k in range(n))

    def __eq__(self, other):
        if isinstance(other, SplitStem):
            return (self.center == other.center and self.w1 == other.w1
                    and self.w2 == other.w2 and self.w3 == other.w3)
        return NotImplemented

    def __hash__(self):
        return hash((self.center, self.w1, self.w2, self.w3))


class StemPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [Quaternion.coerce(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

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
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Quaternion:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Quaternion()

    # -- ring structure -------------------------------------------------------

    def __add__(self, other):
        other = _stem_operand(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return StemPoly(self.coeff(k) + other.coeff(k) for k in range(n))

    __radd__ = __add__

    def __neg__(self):
        return StemPoly(-c for c in self.coeffs)

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
        if self.is_zero or other.is_zero:
            return StemPoly()
        left, left_den = _integer_components(self.coeffs)
        right, right_den = _integer_components(other.coeffs)
        n = len(self.coeffs) + len(other.coeffs) - 1
        out = [[0] * n for _ in range(4)]
        for s, a in enumerate(left):
            if not any(a):
                continue
            for t, b in enumerate(right):
                if not any(b):
                    continue
                r, sign = UNIT_PRODUCTS[s][t]
                acc = out[r]
                for k, x in enumerate(_kronecker(a, b)):
                    acc[k] += sign * x
        den = left_den * right_den
        return StemPoly(Quaternion(*(Fraction(comp[k], den) for comp in out))
                        for k in range(n))

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return StemPoly(c * other for c in self.coeffs)
        if isinstance(other, (StemPoly, Quaternion)):
            return self.star(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self * other
        if isinstance(other, Quaternion):
            return StemPoly.constant(other).star(self)
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = StemPoly.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result.star(base)
            base = base.star(base)
            e >>= 1
        return result

    # -- conjugation and invariants ----------------------------------------------

    def conj(self) -> "StemPoly":
        """Coefficientwise quaternionic conjugation; (F*G)^c = G^c * F^c."""
        return StemPoly(c.conj() for c in self.coeffs)

    def trace(self) -> Poly:
        return Poly(tuple(2 * c.c0 for c in self.coeffs))

    def norm(self) -> Poly:
        """norm(F) = F * F^c, a central (rational) polynomial, computed as
        the sum of the squares of the four component polynomials."""
        parts = self.split()
        c0, (c1, c2, c3) = parts.center, parts.w_polys()
        return c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3

    def hat(self) -> "StemPoly":
        """The trace-free reduction (F - F^c) / 2."""
        return StemPoly(c.imag() for c in self.coeffs)

    def split(self) -> SplitStem:
        return SplitStem(
            Poly(tuple(c.c0 for c in self.coeffs)),
            Poly(tuple(c.c1 for c in self.coeffs)),
            Poly(tuple(c.c2 for c in self.coeffs)),
            Poly(tuple(c.c3 for c in self.coeffs)),
        )

    def is_slice_preserving(self) -> bool:
        return all(c.is_real for c in self.coeffs)

    def central_divisor(self) -> Divisor:
        """The vanishing divisor of the trace-free part, as a monic gcd."""
        if self.is_slice_preserving():
            raise SlicePreservingError(
                "central divisor undefined for slice preserving functions")
        return Divisor(poly_gcd_many(self.split().w_polys()))

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
        parts = self.split()
        reduced = []
        for w in parts.w_polys():
            if w.is_zero:
                reduced.append(w)
                continue
            q, r = divmod(w, lam)
            if not r.is_zero:
                raise AssertionError("gcd does not divide a component")
            reduced.append(q)
        tilde = SplitStem(Poly(), *reduced).reassemble()
        return lam, tilde

    # -- evaluation ----------------------------------------------------------------

    def eval_stem(self, z0) -> CQuat:
        """Value of the stem function at a point of C."""
        z0 = GaussRat.coerce(z0)
        acc = CQuat()
        for c in reversed(self.coeffs):
            acc = acc * z0 + c.complexify()
        return acc

    def eval_slice(self, q) -> Quaternion:
        """Value of the slice regular polynomial at a quaternion,
        computed as the direct power sum with right coefficients."""
        q = Quaternion.coerce(q)
        if self.is_zero:
            return Quaternion()
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
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
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"StemPoly({list(self.coeffs)!r})"

    def __str__(self):
        from .parsing import render_stem
        return render_stem(self)


def _integer_components(coeffs):
    """The four component lists (1, i, j, k) of a coefficient sequence,
    scaled to integers over one common denominator: (lists, denominator)."""
    nums, den = _integer_scaled([c for q in coeffs for c in q.components()])
    return [nums[r::4] for r in range(4)], den


def _stem_operand(value):
    if isinstance(value, StemPoly):
        return value
    if isinstance(value, (Quaternion,) + _SCALARS):
        return StemPoly((value,))
    return None


Z = StemPoly.monomial(1)


class R3StemPoly:
    """A pair of stem polynomials: a stem function into H_C + H_C.

    All structure is componentwise; invariants come out as ordered pairs.
    """

    __slots__ = ("first", "second")

    def __init__(self, first, second):
        first = _stem_operand(first)
        second = _stem_operand(second)
        if first is None or second is None:
            raise TypeError("R3StemPoly components must be stem polynomials")
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    def __setattr__(self, name, value):
        raise AttributeError("R3StemPoly is immutable")

    def __add__(self, other):
        if isinstance(other, R3StemPoly):
            return R3StemPoly(self.first + other.first, self.second + other.second)
        return NotImplemented

    def __neg__(self):
        return R3StemPoly(-self.first, -self.second)

    def __sub__(self, other):
        if isinstance(other, R3StemPoly):
            return R3StemPoly(self.first - other.first, self.second - other.second)
        return NotImplemented

    def star(self, other) -> "R3StemPoly":
        if not isinstance(other, R3StemPoly):
            raise TypeError("star expects another pair")
        return R3StemPoly(self.first.star(other.first),
                          self.second.star(other.second))

    __mul__ = star

    def conj(self) -> "R3StemPoly":
        return R3StemPoly(self.first.conj(), self.second.conj())

    def trace(self):
        return (self.first.trace(), self.second.trace())

    def norm(self):
        return (self.first.norm(), self.second.norm())

    def is_slice_preserving(self):
        return (self.first.is_slice_preserving(),
                self.second.is_slice_preserving())

    def central_divisor(self):
        """Componentwise divisors; slice preserving components are reported
        with the SLICE_PRESERVING marker rather than raising."""
        return tuple(
            SLICE_PRESERVING if f.is_slice_preserving() else f.central_divisor()
            for f in (self.first, self.second))

    def swap(self) -> "R3StemPoly":
        return R3StemPoly(self.second, self.first)

    def eval_stem(self, z0):
        return (self.first.eval_stem(z0), self.second.eval_stem(z0))

    def eval_slice(self, point, require_cone: bool = False):
        """Componentwise evaluation at a pair of quaternions.

        With require_cone=True the point must lie in the quadratic cone
        (matching componentwise trace and norm), the locus where the pair
        is a point of the classical function domain rather than of its
        natural extension.
        """
        from .algebra import R3Elem
        if not isinstance(point, R3Elem):
            raise TypeError("evaluation point must be an R3Elem")
        if not point.is_real:
            raise ValueError("slice evaluation needs real quaternion components")
        if require_cone and not point.in_quadratic_cone():
            raise ValueError("point lies outside the quadratic cone")
        return R3Elem(self.first.eval_slice(point.first),
                      self.second.eval_slice(point.second))

    def __eq__(self, other):
        if isinstance(other, R3StemPoly):
            return self.first == other.first and self.second == other.second
        return NotImplemented

    def __hash__(self):
        return hash((self.first, self.second))

    def __repr__(self):
        return f"R3StemPoly({self.first!r}, {self.second!r})"

    def __str__(self):
        return f"({self.first} ; {self.second})"

"""Stem polynomials with quaternion coefficients and their calculus.

A `StemPoly` is a polynomial F(z) = sum_k z^k * a_k with real quaternion
coefficients a_k.  Read over the complexification it is a stem function
C -> H_C satisfying the reality condition F(conj z) = complex-conj F(z)
(structural here: the coefficients are real quaternions by type).  Read
with a quaternionic variable it is the slice regular polynomial
f(q) = sum_k q^k * a_k, coefficients on the right.

A stem is stored in integers: F = c0 + c1 i + c2 j + c3 k with
c_r = n_r / den, where `nums = (n0, n1, n2, n3)` are four integer lists
(ascending, no trailing zero) and `den` is one positive integer.  The
form is kept in lowest terms, gcd(den, every entry) = 1, so it is
canonical: equal stems store equal integers, and `==` and `hash` read
them.  A `Poly` stores a polynomial in the same form, with one row where
a stem has four; their shared base `poly.IntegerRows` holds the sums,
negation, scalar multiples, powers, `==` and `hash`.  So the component
polynomials `parts` take the stored lists as they are (a list is divided
only when its entries share a factor with den), and the quaternion
coefficients a_k (`coeffs`) are a view, built on each access.
With the coefficientwise quaternionic conjugation F^c = c0 - c1 i - c2 j
- c3 k,

    trace(F) = F + F^c = 2 c0                    (a rational polynomial)
    norm(F)  = F * F^c = c0^2 + c1^2 + c2^2 + c3^2  (multiplicative)
    hat(F)   = (F - F^c) / 2 = c1 i + c2 j + c3 k   (the trace-free part,
               with norm(F) = trace(F)^2/4 + norm(hat(F)))

since the imaginary parts of F * F^c cancel in pairs.  Every operation
works on the stored integers and divides out one gcd at the end: a sum
brings both operands to the lcm of their denominators, and a scalar a/b
multiplies the lists by a and the denominator by b.

The product is coefficient convolution (`star`), which is exactly the
pointwise product of the stem functions since z is central.  It runs on
the stored lists through `poly._kronecker`, the kernel of the `Poly`
product: each of the eight components is packed once into one big
integer (Kronecker substitution, at one digit width wide enough for every
digit of the result), and the quaternion product formula
`algebra._mul_components`, which holds over any commutative ring and so
over Z, multiplies the packed components into four packed sums; each sum
is unpacked once, over the product of the two denominators.  The norm
F * F^c takes the same kernel with `algebra._inner_components`, the real
part of a * b^c, for the product: one sum of squares, over den**2.

The center / trace-free split F = (F', F'') is read off `nums`: F' = c0,
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
from itertools import zip_longest

from .algebra import (CQuat, Pair, Quaternion, R3Elem, _horner_left,
                      _inner_components, _mul_components)
from .errors import SlicePreservingError, ZeroFunctionError
from .poly import (_ZERO, IntegerRows, Poly, _divide_linear, _fractions,
                   _gcd_ints, _kronecker, _over_one_denominator,
                   _pseudo_divmod, vanishing_order)
from .scalars import RATIONAL_TYPES, Frozen, GaussRat


class _SlicePreservingMarker:
    """Marks an undefined central divisor; copy and pickle keep it by name."""

    def __reduce__(self):
        return "SLICE_PRESERVING"

    __repr__ = __reduce__


SLICE_PRESERVING = _SlicePreservingMarker()


class Divisor(Frozen):
    """An effective divisor on C, held as a monic polynomial whose
    vanishing locus (with multiplicity) is the divisor.  The empty
    divisor is the constant 1."""

    __slots__ = ("gcd_poly",)

    def __init__(self, gcd_poly: Poly):
        if gcd_poly.is_zero:
            raise ZeroFunctionError("a divisor polynomial cannot be zero")
        object.__setattr__(self, "gcd_poly", gcd_poly.monic())

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


class StemPoly(IntegerRows):
    """F = c0 + c1 i + c2 j + c3 k, stored as four integer lists
    `nums = (n0, n1, n2, n3)`, ascending with no trailing zero, and one
    positive integer `den`: c_r = n_r / den, in lowest terms
    (gcd(den, every entry) = 1).  The four lists are its rows, and a
    quaternion lifts to a constant as a rational does.  `parts` and
    `coeffs` are views."""

    __slots__ = ()
    _scalars = (Quaternion,) + RATIONAL_TYPES
    _store = tuple

    def __new__(cls, coeffs=()):
        rows = [Quaternion.coerce(c).components() for c in coeffs]
        return cls._from_rows(
            *_over_one_denominator(zip(*rows) if rows else [()] * 4))

    @property
    def _rows(self) -> tuple:
        return self.nums

    @property
    def parts(self) -> tuple:
        """The four component polynomials (c0, c1, c2, c3) over Q."""
        return tuple(Poly._from_ints(xs, self.den) for xs in self.nums)

    @property
    def coeffs(self) -> tuple:
        """The quaternion coefficients, ascending, with no trailing zero."""
        return tuple(Quaternion(*c) for c in zip_longest(
            *(_fractions(xs, self.den) for xs in self.nums), fillvalue=_ZERO))

    def coeff(self, k: int) -> Quaternion:
        return Quaternion(*(Fraction(xs[k], self.den) if 0 <= k < len(xs)
                            else _ZERO for xs in self.nums))

    # -- product --------------------------------------------------------------

    def star(self, other) -> "StemPoly":
        """The product, with quaternion products taken in operand order
        (equals the pointwise stem product); computed on the stored
        integer lists as the module docstring describes."""
        other = self._operand(other)
        if other is None:
            raise TypeError("star expects a stem polynomial or a coefficient")
        return StemPoly._from_rows(
            _kronecker(self.nums, other.nums, _mul_components),
            self.den * other.den)

    def __mul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return self._scaled(other)
        operand = self._operand(other)
        return NotImplemented if operand is None else self.star(operand)

    def __rmul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return self._scaled(other)
        operand = self._operand(other)
        return NotImplemented if operand is None else operand.star(self)

    # -- conjugation and invariants ----------------------------------------------

    def conj(self) -> "StemPoly":
        """Coefficientwise quaternionic conjugation; (F*G)^c = G^c * F^c."""
        n0, *imag = self.nums
        return StemPoly._from_rows([n0] + [[-x for x in xs] for xs in imag],
                                   self.den)

    def trace(self) -> Poly:
        return Poly._from_ints([2 * x for x in self.nums[0]], self.den)

    def norm(self) -> Poly:
        """norm(F) = F * F^c, a central (rational) polynomial, as the
        module docstring computes it."""
        return Poly._from_rows(_kronecker(self.nums, self.nums,
                                          _inner_components), self.den ** 2)

    def hat(self) -> "StemPoly":
        """The trace-free reduction (F - F^c) / 2."""
        return StemPoly._from_rows([[], *self.nums[1:]], self.den)

    def is_slice_preserving(self) -> bool:
        return not any(self.nums[1:])

    def central_divisor(self) -> Divisor:
        """The vanishing divisor of the trace-free part, as a monic gcd: the
        `_gcd_ints` of the stored lists, which are the parts times den."""
        if self.is_slice_preserving():
            raise SlicePreservingError(
                "central divisor undefined for slice preserving functions")
        return Divisor(Poly._from_ints(_gcd_ints(self.nums[1:])))

    def remove_central_divisor(self):
        """Factor F = lam * Ftilde with empty cdiv(Ftilde).

        Requires trace(F) = 0 and F nonzero; lam is the monic divisor
        polynomial and norm(F) = lam**2 * norm(Ftilde).  lam = g / g[-1],
        stored as g over g[-1], for g = `_gcd_ints(n1, n2, n3)`; g is
        primitive, so by Gauss's lemma it divides each n_r in Z[z]
        (`_pseudo_divmod` at scale 1), and Ftilde is g[-1] n_r / g over den.
        """
        if self.is_zero:
            raise ZeroFunctionError("cannot factor the zero function")
        lam = self.central_divisor().gcd_poly  # refuses a slice preserving F
        if self.nums[0]:
            raise ValueError("remove_central_divisor needs a trace-free input")
        g, reduced = lam.nums, [[]]
        for xs in self.nums[1:]:
            q, r = _pseudo_divmod(xs, g)
            if any(r):
                raise AssertionError("gcd does not divide a component")
            reduced.append([g[-1] * x for x in q])
        return lam, StemPoly._from_rows(reduced, self.den)

    # -- evaluation ----------------------------------------------------------------

    def eval_stem(self, z0) -> CQuat:
        """Value of the stem function at a point of C: each stored list
        by Horner's rule (`_divide_linear`), over den once."""
        z0 = GaussRat.coerce(z0)
        value = CQuat(*(_divide_linear(xs, z0)[1] for xs in self.nums))
        return value * Fraction(1, self.den)

    def eval_slice(self, q) -> Quaternion:
        """Value of the slice regular polynomial at a quaternion (right
        coefficients): `algebra._horner_left` on the stored lists."""
        acc = _horner_left(Quaternion.coerce(q).components(), self.nums)
        return Quaternion(*acc) * Fraction(1, self.den)

    # -- display --------------------------------------------------------------

    def __repr__(self):
        return f"StemPoly({list(self.coeffs)!r})"

    def __str__(self):
        from .parsing import render_stem
        return render_stem(self)


Z = StemPoly.monomial(1)


class R3StemPoly(Pair):
    """A pair of stem polynomials: a stem function into H_C + H_C.

    All structure is componentwise; invariants come out as ordered pairs.
    """

    __slots__ = ()

    def __init__(self, first, second):
        first, second = StemPoly._operand(first), StemPoly._operand(second)
        if first is None or second is None:
            raise TypeError("R3StemPoly components must be stem polynomials")
        super().__init__(first, second)

    def star(self, other) -> "R3StemPoly":
        if not isinstance(other, R3StemPoly):
            raise TypeError("star expects another pair")
        return self * other

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

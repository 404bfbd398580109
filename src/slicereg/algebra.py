"""The hypercomplex algebras: H, its complexification, and H + H.

Conventions
-----------
* `Quaternion` has exact rational coordinates over the basis (1, i, j, k)
  with i*i = j*j = k*k = -1, i*j = k, j*k = i, k*i = j.
* `CQuat` is the complexification: same basis, Gaussian-rational
  coordinates.  Its center is exactly the set of elements with zero
  i, j, k parts; complex conjugation (E -> -E, componentwise) and
  quaternionic conjugation commute.
* Conjugation x -> conj(x) negates the i, j, k parts.  From it,
  trace(x) = x + conj(x) and norm(x) = x * conj(x); both are central,
  and norm is multiplicative: norm(x*y) = norm(x)*norm(y).
* Every algebra automorphism fixing the center is conjugation by an
  invertible element; `conj_by_unit` realizes it and `aut_to_matrix`
  returns its matrix on span(i, j, k), a special orthogonal 3x3 matrix
  for the bilinear form `bform` extending the euclidean product.
* `R3Elem` is an element of the split algebra realized as an ordered
  pair of (complexified) quaternions; every structural operation acts
  componentwise and `swap` is the extra automorphism generator that
  componentwise maps cannot produce.

The reduced trace/norm of the 2x2 complex matrix realization are not
computed anywhere; the matrix model is deliberately not a runtime
representation.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import NotInWError, ZeroDivisorError, ZeroInverseError
from .scalars import GaussRat, as_rat, power

_REAL_SCALARS = (int, Fraction)


def _mul_components(a0, a1, a2, a3, b0, b1, b2, b3):
    """Quaternion product over any commutative coefficient ring."""
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


# The same product as a sign pattern on the basis units (1, i, j, k):
# e_s * e_t = sign * e_r with (r, sign) = UNIT_PRODUCTS[s][t].  Kernels
# that multiply whole component lists (stem products, the linear system
# of an intertwiner) read it instead of spelling the product out again.
UNIT_PRODUCTS = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, -1), (0, -1), (1, 1)),
    ((3, 1), (2, 1), (1, -1), (0, -1)),
)


class Quaternion:
    """A quaternion with exact rational coordinates."""

    __slots__ = ("c0", "c1", "c2", "c3")

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        object.__setattr__(self, "c0", as_rat(c0))
        object.__setattr__(self, "c1", as_rat(c1))
        object.__setattr__(self, "c2", as_rat(c2))
        object.__setattr__(self, "c3", as_rat(c3))

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    @classmethod
    def coerce(cls, value) -> "Quaternion":
        if isinstance(value, Quaternion):
            return value
        if isinstance(value, _REAL_SCALARS):
            return cls(value)
        raise TypeError(f"cannot interpret {type(value).__name__} as Quaternion")

    def components(self):
        return (self.c0, self.c1, self.c2, self.c3)

    # -- predicates -------------------------------------------------------

    def __bool__(self):
        return bool(self.c0) or bool(self.c1) or bool(self.c2) or bool(self.c3)

    @property
    def is_real(self) -> bool:
        return not (self.c1 or self.c2 or self.c3)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = _quat_operand(other)
        if other is None:
            return NotImplemented
        return Quaternion(self.c0 + other.c0, self.c1 + other.c1,
                          self.c2 + other.c2, self.c3 + other.c3)

    __radd__ = __add__

    def __neg__(self):
        return Quaternion(-self.c0, -self.c1, -self.c2, -self.c3)

    def __sub__(self, other):
        other = _quat_operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _quat_operand(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, _REAL_SCALARS):
            return Quaternion(self.c0 * other, self.c1 * other,
                              self.c2 * other, self.c3 * other)
        if isinstance(other, Quaternion):
            return Quaternion(*_mul_components(*self.components(),
                                               *other.components()))
        return NotImplemented

    def __rmul__(self, other):
        # Scalars commute, so only they land here.
        if isinstance(other, _REAL_SCALARS):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int):
        return power(self, exponent, Quaternion(1), operator.mul)

    # -- conjugation, trace, norm ------------------------------------------

    def conj(self) -> "Quaternion":
        return Quaternion(self.c0, -self.c1, -self.c2, -self.c3)

    def trace(self) -> Fraction:
        return 2 * self.c0

    def norm(self) -> Fraction:
        return (self.c0 * self.c0 + self.c1 * self.c1
                + self.c2 * self.c2 + self.c3 * self.c3)

    def inverse(self) -> "Quaternion":
        n = self.norm()
        if n == 0:
            raise ZeroInverseError("cannot invert the zero quaternion")
        return self.conj() * (1 / n)

    def imag(self) -> "Quaternion":
        """The pure-imaginary part (coordinates over i, j, k)."""
        return Quaternion(0, self.c1, self.c2, self.c3)

    def complexify(self) -> "CQuat":
        return CQuat(GaussRat(self.c0), GaussRat(self.c1),
                     GaussRat(self.c2), GaussRat(self.c3))

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, _REAL_SCALARS):
            return self.is_real and self.c0 == other
        if isinstance(other, Quaternion):
            return self.components() == other.components()
        return NotImplemented

    def __hash__(self):
        if self.is_real:
            return hash(self.c0)
        return hash(self.components())

    def __repr__(self):
        return f"Quaternion({self.c0}, {self.c1}, {self.c2}, {self.c3})"

    def __str__(self):
        return _render_components(self.components())


class CQuat:
    """An element of the complexified quaternions: GaussRat coordinates
    over (1, i, j, k), with the scalar unit E commuting with i, j, k."""

    __slots__ = ("c0", "c1", "c2", "c3")

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        object.__setattr__(self, "c0", GaussRat.coerce(c0))
        object.__setattr__(self, "c1", GaussRat.coerce(c1))
        object.__setattr__(self, "c2", GaussRat.coerce(c2))
        object.__setattr__(self, "c3", GaussRat.coerce(c3))

    def __setattr__(self, name, value):
        raise AttributeError("CQuat is immutable")

    @classmethod
    def coerce(cls, value) -> "CQuat":
        if isinstance(value, CQuat):
            return value
        if isinstance(value, Quaternion):
            return value.complexify()
        if isinstance(value, (GaussRat,) + _REAL_SCALARS):
            return cls(GaussRat.coerce(value))
        raise TypeError(f"cannot interpret {type(value).__name__} as CQuat")

    def components(self):
        return (self.c0, self.c1, self.c2, self.c3)

    # -- predicates -------------------------------------------------------

    def __bool__(self):
        return bool(self.c0) or bool(self.c1) or bool(self.c2) or bool(self.c3)

    @property
    def is_central(self) -> bool:
        return not (self.c1 or self.c2 or self.c3)

    @property
    def is_real_quaternion(self) -> bool:
        return (self.c0.is_real and self.c1.is_real
                and self.c2.is_real and self.c3.is_real)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = _cquat_operand(other)
        if other is None:
            return NotImplemented
        return CQuat(self.c0 + other.c0, self.c1 + other.c1,
                     self.c2 + other.c2, self.c3 + other.c3)

    __radd__ = __add__

    def __neg__(self):
        return CQuat(-self.c0, -self.c1, -self.c2, -self.c3)

    def __sub__(self, other):
        other = _cquat_operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _cquat_operand(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (GaussRat,) + _REAL_SCALARS):
            s = GaussRat.coerce(other)
            return CQuat(self.c0 * s, self.c1 * s, self.c2 * s, self.c3 * s)
        if isinstance(other, Quaternion):
            other = other.complexify()
        if isinstance(other, CQuat):
            return CQuat(*_mul_components(*self.components(),
                                          *other.components()))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (GaussRat,) + _REAL_SCALARS):
            return self * other
        if isinstance(other, Quaternion):
            return other.complexify() * self
        return NotImplemented

    def __pow__(self, exponent: int):
        return power(self, exponent, CQuat(1), operator.mul)

    # -- involutions, trace, norm -------------------------------------------

    def conj(self) -> "CQuat":
        """Quaternionic conjugation, extended linearly over E (fixes E)."""
        return CQuat(self.c0, -self.c1, -self.c2, -self.c3)

    def complex_conjugate(self) -> "CQuat":
        """Complex conjugation E -> -E, componentwise.  Commutes with conj."""
        return CQuat(self.c0.conjugate(), self.c1.conjugate(),
                     self.c2.conjugate(), self.c3.conjugate())

    def trace(self) -> GaussRat:
        return self.c0 * 2

    def norm(self) -> GaussRat:
        return (self.c0 * self.c0 + self.c1 * self.c1
                + self.c2 * self.c2 + self.c3 * self.c3)

    def inverse(self) -> "CQuat":
        n = self.norm()
        if not n:
            if not self:
                raise ZeroInverseError("cannot invert zero")
            raise ZeroDivisorError(
                "cannot invert a zero divisor (nonzero element of zero norm)")
        return self.conj() * (GaussRat(1) / n)

    # -- center / W decomposition ---------------------------------------------

    def split(self):
        """x = center*1 + wpart with wpart trace-free; center = trace(x)/2."""
        return self.c0, CQuat(GaussRat(0), self.c1, self.c2, self.c3)

    def center_part(self) -> GaussRat:
        return self.c0

    def w_part(self) -> "CQuat":
        return CQuat(GaussRat(0), self.c1, self.c2, self.c3)

    def to_quaternion(self) -> Quaternion:
        if not self.is_real_quaternion:
            raise ValueError("element has nonzero E-parts")
        return Quaternion(self.c0.re, self.c1.re, self.c2.re, self.c3.re)

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (GaussRat,) + _REAL_SCALARS):
            return self.is_central and self.c0 == other
        if isinstance(other, Quaternion):
            other = other.complexify()
        if isinstance(other, CQuat):
            return self.components() == other.components()
        return NotImplemented

    def __hash__(self):
        if self.is_central:
            return hash(self.c0)
        return hash(self.components())

    def __repr__(self):
        return (f"CQuat({self.c0!r}, {self.c1!r}, {self.c2!r}, {self.c3!r})")

    def __str__(self):
        return _render_components(self.components())


def _quat_operand(value):
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, _REAL_SCALARS):
        return Quaternion(value)
    return None


def _cquat_operand(value):
    if isinstance(value, CQuat):
        return value
    if isinstance(value, Quaternion):
        return value.complexify()
    if isinstance(value, (GaussRat,) + _REAL_SCALARS):
        return CQuat(GaussRat.coerce(value))
    return None


def _r3_component(value):
    if isinstance(value, (Quaternion, CQuat)):
        return value
    if isinstance(value, _REAL_SCALARS):
        return Quaternion(value)
    if isinstance(value, GaussRat):
        return CQuat(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a pair component")


def _render_components(components) -> str:
    """Expression text of the coordinates over (1, i, j, k); a non-real
    GaussRat coefficient of a unit is parenthesized."""
    parts = []
    for coeff, unit in zip(components, ("", "i", "j", "k")):
        if coeff == 0:
            continue
        if not unit:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(unit)
        elif coeff == -1:
            parts.append(f"-{unit}")
        elif isinstance(coeff, GaussRat) and not coeff.is_real:
            parts.append(f"({coeff})*{unit}")
        else:
            parts.append(f"{coeff}*{unit}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


# -- named constants ----------------------------------------------------------

ONE = Quaternion(1)
QI = Quaternion(0, 1)
QJ = Quaternion(0, 0, 1)
QK = Quaternion(0, 0, 0, 1)


# -- the bilinear form on W and inner automorphisms ----------------------------

def bform(v, w) -> GaussRat:
    """The symmetric bilinear form on the trace-free part W, extending the
    euclidean scalar product of span(i, j, k).  B(v, v) = norm(v) there."""
    v = CQuat.coerce(v)
    w = CQuat.coerce(w)
    if v.c0 or w.c0:
        raise NotInWError("bform arguments must have zero center part")
    return v.c1 * w.c1 + v.c2 * w.c2 + v.c3 * w.c3


def conj_by_unit(alpha, x):
    """The inner automorphism x -> alpha * x * alpha**-1.

    Fixes the center pointwise and preserves trace and norm.  Raises
    ZeroDivisorError (or ZeroInverseError for alpha = 0) if alpha is not
    invertible.  Real inputs stay real.
    """
    if isinstance(alpha, Quaternion) and isinstance(x, Quaternion):
        return alpha * x * alpha.inverse()
    a = CQuat.coerce(alpha)
    return a * CQuat.coerce(x) * a.inverse()


class SO3Matrix:
    """3x3 matrix over GaussRat acting on W in the basis (i, j, k).

    The constructor enforces the defining invariants: columns orthonormal
    for the bilinear form (M^T M = 1) and det M = 1.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(GaussRat.coerce(e) for e in row) for row in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("SO3Matrix requires a 3x3 grid")
        object.__setattr__(self, "rows", rows)
        if not self._is_special_orthogonal():
            raise ValueError("matrix is not special orthogonal")

    def __setattr__(self, name, value):
        raise AttributeError("SO3Matrix is immutable")

    @classmethod
    def identity(cls) -> "SO3Matrix":
        one, zero = GaussRat(1), GaussRat(0)
        return cls(((one, zero, zero), (zero, one, zero), (zero, zero, one)))

    def transpose(self) -> "SO3Matrix":
        return SO3Matrix(tuple(zip(*self.rows)))

    def entry(self, r: int, c: int) -> GaussRat:
        return self.rows[r][c]

    def det(self) -> GaussRat:
        ((a, b, c), (d, e, f), (g, h, i)) = self.rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    def _is_special_orthogonal(self) -> bool:
        t = tuple(zip(*self.rows))
        for r in range(3):
            for c in range(3):
                want = GaussRat(1 if r == c else 0)
                got = sum((t[r][m] * self.rows[m][c] for m in range(3)),
                          GaussRat(0))
                if got != want:
                    return False
        return self.det() == 1

    def apply(self, v: CQuat) -> CQuat:
        """Apply to a trace-free element, coordinates over (i, j, k)."""
        if v.c0:
            raise NotInWError("SO3Matrix acts on the trace-free part only")
        coords = (v.c1, v.c2, v.c3)
        out = [sum((self.rows[r][c] * coords[c] for c in range(3)), GaussRat(0))
               for r in range(3)]
        return CQuat(GaussRat(0), *out)

    def __eq__(self, other):
        if isinstance(other, SO3Matrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"SO3Matrix({self.rows!r})"


def aut_to_matrix(alpha) -> SO3Matrix:
    """Matrix of conj_by_unit(alpha, .) restricted to W, basis (i, j, k)."""
    a = CQuat.coerce(alpha)
    cols = [conj_by_unit(a, CQuat.coerce(u)) for u in (QI, QJ, QK)]
    rows = tuple(tuple((col.c1, col.c2, col.c3)[r] for col in cols)
                 for r in range(3))
    return SO3Matrix(rows)


# -- the split algebra H + H ----------------------------------------------------

class R3Elem:
    """An ordered pair of quaternions (or complexified quaternions).

    Both components must have the same scalar kind.  Multiplication,
    conjugation, trace and norm all act componentwise; `swap` exchanges
    the components (the extra automorphism of a direct sum of two copies
    of a ring without zero divisors).
    """

    __slots__ = ("first", "second")

    def __init__(self, first, second):
        first = _r3_component(first)
        second = _r3_component(second)
        if isinstance(first, Quaternion) != isinstance(second, Quaternion):
            raise ValueError("components must share the same scalar kind")
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    def __setattr__(self, name, value):
        raise AttributeError("R3Elem is immutable")

    @property
    def is_real(self) -> bool:
        return isinstance(self.first, Quaternion)

    def __add__(self, other):
        if isinstance(other, R3Elem):
            return R3Elem(self.first + other.first, self.second + other.second)
        return NotImplemented

    def __neg__(self):
        return R3Elem(-self.first, -self.second)

    def __sub__(self, other):
        if isinstance(other, R3Elem):
            return R3Elem(self.first - other.first, self.second - other.second)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, R3Elem):
            return R3Elem(self.first * other.first, self.second * other.second)
        return NotImplemented

    def conj(self) -> "R3Elem":
        return R3Elem(self.first.conj(), self.second.conj())

    def trace(self):
        return (self.first.trace(), self.second.trace())

    def norm(self):
        return (self.first.norm(), self.second.norm())

    def inverse(self) -> "R3Elem":
        return R3Elem(self.first.inverse(), self.second.inverse())

    def swap(self) -> "R3Elem":
        return R3Elem(self.second, self.first)

    def in_quadratic_cone(self) -> bool:
        """True iff trace and norm are real, i.e. both componentwise values
        agree.  Only meaningful for real (quaternion) components."""
        if not self.is_real:
            raise ValueError("quadratic cone membership applies to real pairs")
        return (self.first.trace() == self.second.trace()
                and self.first.norm() == self.second.norm())

    def __eq__(self, other):
        if isinstance(other, R3Elem):
            return self.first == other.first and self.second == other.second
        return NotImplemented

    def __hash__(self):
        return hash((self.first, self.second))

    def __repr__(self):
        return f"R3Elem({self.first!r}, {self.second!r})"

    def __str__(self):
        return f"({self.first} ; {self.second})"

"""The hypercomplex algebras: H, its complexification, and H + H.

Conventions
-----------
* `QuaternionBase` is the quaternion ring over a commutative field: four
  coordinates over the basis (1, i, j, k) with i*i = j*j = k*k = -1,
  i*j = k, j*k = i, k*i = j.  Each subclass states only its field:
  `Quaternion` exact rationals, `CQuat` (the complexification) Gaussian
  rationals, `series.CQuatF` complex floats.  Mixed operands promote
  along Quaternion -> CQuat -> CQuatF, and a Gaussian scalar takes a
  `Quaternion` into `CQuat`, so every exact mix computes in `CQuat`.
* `_mul_components` is the one quaternion product formula.  It holds
  over any commutative coefficient ring, so it serves these three fields,
  Horner's rule (`_horner_left`), the stem product on packed integers
  (`poly._kronecker`) and the intertwiner and conjugator checks alike;
  `_inner_components`, the real part of a * b^c, gives packed stem norms.
* The center is exactly the set of elements with zero i, j, k parts; in
  `CQuat` complex conjugation (E -> -E, componentwise) and quaternionic
  conjugation commute.
* Conjugation x -> conj(x) negates the i, j, k parts.  From it,
  trace(x) = x + conj(x) and norm(x) = x * conj(x); both are central,
  and norm is multiplicative: norm(x*y) = norm(x)*norm(y).
* Every algebra automorphism fixing the center is conjugation by an
  invertible element; `conj_by_unit` realizes it and `aut_to_matrix`
  returns its matrix on span(i, j, k), a special orthogonal 3x3 matrix
  for the bilinear form `bform` extending the euclidean product.
* `Pair` acts componentwise on an ordered pair.  `R3Elem` (the split
  algebra H + H as pairs of (complexified) quaternions) and
  `stem.R3StemPoly` derive from it; `swap` is the extra automorphism
  generator that componentwise maps cannot produce.

The reduced trace/norm of the 2x2 complex matrix realization are not
computed anywhere; the matrix model is deliberately not a runtime
representation.
"""

from __future__ import annotations

import operator

from .errors import NotInWError, ZeroDivisorError, ZeroInverseError
from .scalars import (EXACT_SCALARS, RATIONAL_TYPES, Frozen, GaussRat, as_rat,
                      power)


def _mul_components(a0, a1, a2, a3, b0, b1, b2, b3):
    """Quaternion product over any commutative coefficient ring."""
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def _inner_components(a0, a1, a2, a3, b0, b1, b2, b3):
    """The real part of a * b^c, as one sum: a * a^c is the norm of a."""
    return (a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3,)


def _horner_left(q, rows):
    """The components of sum_k q^k * a_k by Horner's rule, acc <- q * acc
    + a_k with the point on the left: q given by its four components, the
    a_k by four component lists, ascending (zeros past a list's end)."""
    n = max(map(len, rows))
    q0, q1, q2, q3 = q
    a0 = a1 = a2 = a3 = 0
    for c0, c1, c2, c3 in zip(*([0] * (n - len(xs)) + xs[::-1]
                                for xs in rows)):
        p0, p1, p2, p3 = _mul_components(q0, q1, q2, q3, a0, a1, a2, a3)
        a0, a1, a2, a3 = p0 + c0, p1 + c1, p2 + c2, p3 + c3
    return a0, a1, a2, a3


class QuaternionBase(Frozen):
    """Four coordinates over (1, i, j, k).  A subclass states its field:
    `_coord` coerces a coordinate, `_scalars` are the scalars it multiplies
    by, `_promotes` the quaternion types it converts into itself (those
    in `_eq_promotes` exactly, so `==` may use them), and `_coord_repr`
    writes a coordinate in `repr`."""

    __slots__ = ("c0", "c1", "c2", "c3")
    _promotes = ()
    _eq_promotes = ()
    _coord_repr = staticmethod(repr)

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        coord = self._coord
        object.__setattr__(self, "c0", coord(c0))
        object.__setattr__(self, "c1", coord(c1))
        object.__setattr__(self, "c2", coord(c2))
        object.__setattr__(self, "c3", coord(c3))

    @classmethod
    def _operand(cls, value):
        """`value` as an element of this algebra, or None."""
        if isinstance(value, cls):
            return value
        if isinstance(value, cls._promotes):
            return cls(*value.components())
        if isinstance(value, cls._scalars):
            return cls(value)
        return None

    @classmethod
    def coerce(cls, value):
        out = cls._operand(value)
        if out is None:
            raise TypeError(
                f"cannot interpret {type(value).__name__} as {cls.__name__}")
        return out

    def components(self):
        return (self.c0, self.c1, self.c2, self.c3)

    # -- predicates -------------------------------------------------------

    def __bool__(self):
        return bool(self.c0) or bool(self.c1) or bool(self.c2) or bool(self.c3)

    @property
    def is_central(self) -> bool:
        return not (self.c1 or self.c2 or self.c3)

    # -- ring structure ----------------------------------------------------

    def _widened(self, op, other):
        """op(self, other) in the quaternions over the wider field of the
        scalar `other`; NotImplemented when no wider field holds both."""
        return NotImplemented

    def __add__(self, other):
        operand = self._operand(other)
        if operand is None:
            return self._widened(operator.add, other)
        return type(self)(self.c0 + operand.c0, self.c1 + operand.c1,
                          self.c2 + operand.c2, self.c3 + operand.c3)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-self.c0, -self.c1, -self.c2, -self.c3)

    def __sub__(self, other):
        operand = self._operand(other)
        if operand is None:
            return self._widened(operator.sub, other)
        return self + (-operand)

    def __rsub__(self, other):
        operand = self._operand(other)
        if operand is None:
            return self._widened(lambda wide, g: g - wide, other)
        return operand + (-self)

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return type(self)(self.c0 * other, self.c1 * other,
                              self.c2 * other, self.c3 * other)
        operand = self._operand(other)
        if operand is None:
            return self._widened(operator.mul, other)
        return type(self)(*_mul_components(*self.components(),
                                           *operand.components()))

    def __rmul__(self, other):
        # Scalars commute with everything; a promoted operand goes first.
        if isinstance(other, self._scalars):
            return self * other
        operand = self._operand(other)
        if operand is None:
            return self._widened(operator.mul, other)
        return operand * self

    def __pow__(self, exponent: int):
        return power(self, exponent, type(self)(1), operator.mul)

    # -- conjugation, trace, norm ------------------------------------------

    def conj(self):
        """Quaternionic conjugation (over CQuat it fixes E)."""
        return type(self)(self.c0, -self.c1, -self.c2, -self.c3)

    def imag(self):
        """The pure-imaginary part (coordinates over i, j, k)."""
        return type(self)(0, self.c1, self.c2, self.c3)

    def trace(self):
        return self.c0 * 2

    def norm(self):
        return (self.c0 * self.c0 + self.c1 * self.c1
                + self.c2 * self.c2 + self.c3 * self.c3)

    def inverse(self):
        n = self.norm()
        if not n:
            if not self:
                raise ZeroInverseError("cannot invert zero")
            raise ZeroDivisorError(
                "cannot invert a zero divisor (nonzero element of zero norm)")
        return self.conj() * (1 / n)

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, self._scalars):
            return self.is_central and self.c0 == other
        if isinstance(other, self._eq_promotes):
            other = self.coerce(other)
        if isinstance(other, type(self)):
            return self.components() == other.components()
        return self._widened(operator.eq, other)

    def __hash__(self):
        if self.is_central:
            return hash(self.c0)
        return hash(self.components())

    def __repr__(self):
        text = ", ".join(map(self._coord_repr, self.components()))
        return f"{type(self).__name__}({text})"

    def __str__(self):
        return _render_components(self.components())


class Quaternion(QuaternionBase):
    """A quaternion with exact rational coordinates."""

    __slots__ = ()
    _coord = staticmethod(as_rat)
    _scalars = RATIONAL_TYPES
    _coord_repr = staticmethod(str)
    # Own binding: bench/tracing.py counts products via Quaternion.__dict__.
    __mul__ = QuaternionBase.__mul__

    is_real = QuaternionBase.is_central  # a central quaternion is real

    def complexify(self) -> "CQuat":
        return CQuat(*self.components())

    def _widened(self, op, other):
        # A Gaussian scalar takes a rational quaternion into CQuat.
        if isinstance(other, GaussRat):
            return op(self.complexify(), other)
        return NotImplemented


class CQuat(QuaternionBase):
    """An element of the complexified quaternions: GaussRat coordinates
    over (1, i, j, k), with the scalar unit E commuting with i, j, k."""

    __slots__ = ()
    _coord = staticmethod(GaussRat.coerce)
    _scalars = EXACT_SCALARS
    _promotes = _eq_promotes = (Quaternion,)
    # Own binding: bench/tracing.py counts products via CQuat.__dict__.
    __mul__ = QuaternionBase.__mul__

    @property
    def is_real_quaternion(self) -> bool:
        return all(c.is_real for c in self.components())

    # -- center / W decomposition ---------------------------------------------

    def split(self):
        """x = center*1 + wpart with wpart trace-free; center = trace(x)/2."""
        return self.c0, self.imag()

    def center_part(self) -> GaussRat:
        return self.c0

    w_part = QuaternionBase.imag

    def to_quaternion(self) -> Quaternion:
        if not self.is_real_quaternion:
            raise ValueError("element has nonzero E-parts")
        return Quaternion(*(c.re for c in self.components()))


def _r3_component(value):
    for kind in (Quaternion, CQuat):
        out = kind._operand(value)
        if out is not None:
            return out
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
    return _join_terms(parts)


def _join_terms(terms) -> str:
    """The terms joined by " + ", or " - " for a term's leading "-"."""
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
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


class SO3Matrix(Frozen):
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

class Pair(Frozen):
    """An ordered pair, acted on componentwise.  A subclass checks its
    components in `__init__` and adds its own product."""

    __slots__ = ("first", "second")

    def __init__(self, first, second):
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    def __add__(self, other):
        if isinstance(other, type(self)):
            return type(self)(self.first + other.first, self.second + other.second)
        return NotImplemented

    def __neg__(self):
        return type(self)(-self.first, -self.second)

    def __sub__(self, other):
        if isinstance(other, type(self)):
            return type(self)(self.first - other.first, self.second - other.second)
        return NotImplemented

    def conj(self):
        return type(self)(self.first.conj(), self.second.conj())

    def trace(self):
        return (self.first.trace(), self.second.trace())

    def norm(self):
        return (self.first.norm(), self.second.norm())

    def swap(self):
        return type(self)(self.second, self.first)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.first == other.first and self.second == other.second
        return NotImplemented

    def __hash__(self):
        return hash((self.first, self.second))

    def __repr__(self):
        return f"{type(self).__name__}({self.first!r}, {self.second!r})"

    def __str__(self):
        return f"({self.first} ; {self.second})"


class R3Elem(Pair):
    """An ordered pair of quaternions (or complexified quaternions).

    Both components must have the same scalar kind.  Multiplication,
    conjugation, trace and norm all act componentwise; `swap` exchanges
    the components (the extra automorphism of a direct sum of two copies
    of a ring without zero divisors).
    """

    __slots__ = ()

    def __init__(self, first, second):
        first = _r3_component(first)
        second = _r3_component(second)
        if isinstance(first, Quaternion) != isinstance(second, Quaternion):
            raise ValueError("components must share the same scalar kind")
        super().__init__(first, second)

    @property
    def is_real(self) -> bool:
        return isinstance(self.first, Quaternion)

    def __mul__(self, other):
        if isinstance(other, R3Elem):
            return R3Elem(self.first * other.first, self.second * other.second)
        return NotImplemented

    def inverse(self) -> "R3Elem":
        return R3Elem(self.first.inverse(), self.second.inverse())

    def in_quadratic_cone(self) -> bool:
        """True iff trace and norm are real, i.e. both componentwise values
        agree.  Only meaningful for real (quaternion) components."""
        if not self.is_real:
            raise ValueError("quadratic cone membership applies to real pairs")
        return (self.first.trace() == self.second.trace()
                and self.first.norm() == self.second.norm())

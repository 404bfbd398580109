"""Exact scalar ground fields: rationals and Gaussian rationals.

Plain rationals are `fractions.Fraction` (arbitrary precision, always in
lowest terms, positive denominator).  `GaussRat` adds the commuting complex
unit, written `E` in expression syntax: a value `re + E*im` with rational
parts.  `E` is the scalar imaginary unit of the complexification and is
unrelated to the quaternion units i, j, k, with which it commutes.

The module also holds `Frozen`, the one immutable base of the package's
values, `Ring`, the base of its ring values that writes their subtraction,
and `Record`, the `Frozen` base of its result records, because every
other module loads this one.
"""

from __future__ import annotations

import operator
from fractions import Fraction

Rat = Fraction

# The exact rational types: every module tests for them through this name.
RATIONAL_TYPES = (int, Fraction)


def as_rat(value) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject floats (exactness)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def power(base, exponent: int, one, mul):
    """base**exponent by square-and-multiply: `one` is the identity and
    `mul` the product of the ring.  Every `__pow__` in the package runs
    through here.  The base is squared only while bits remain, so no
    product is computed and thrown away."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("only nonnegative integer powers are supported")
    result = one
    while exponent:
        if exponent & 1:
            result = mul(result, base)
        exponent >>= 1
        if exponent:
            base = mul(base, base)
    return result


def _coerce(cls, value):
    """`cls.coerce`: `value` lifted by `cls._operand`, else TypeError."""
    out = cls._operand(value)
    if out is None:
        raise TypeError(
            f"cannot interpret {type(value).__name__} as {cls.__name__}")
    return out


def _rebuild(cls, state: dict):
    """The `Frozen` value of class `cls` whose slots hold `state`."""
    value = object.__new__(cls)
    for name, item in state.items():
        object.__setattr__(value, name, item)
    return value


class Frozen:
    """The immutable base of the package's values: assignment and
    deletion raise, and `copy`, `deepcopy` and `pickle` rebuild a value
    from its slots and its instance `__dict__` (a `Record`'s fields)
    without running `__init__` (which the assignment would refuse)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        cls = type(self)
        state = {name: getattr(self, name) for klass in cls.__mro__
                 for name in klass.__dict__.get("__slots__", ())}
        state.update(getattr(self, "__dict__", ()))
        return _rebuild, (cls, state)


class Ring(Frozen):
    """The base of `GaussRat`, `algebra.QuaternionBase`, `algebra.Pair`,
    `poly.IntegerRows` and `series.TruncSeries`.  Each defines `_operand`
    (the other operand lifted into its class, or None), `+` and unary `-`;
    subtraction, a + (-b), is written here once from them, and an operand
    that `_operand` refuses goes to `_widened`.  Their `==` is symmetric and
    agrees with `hash` but not transitive: `Fraction(1, 2) == 0.5`, yet
    `GaussRat`, `Poly` and `StemPoly` refuse floats and `Poly` and `StemPoly`
    constants are never equal, so a mixed set depends on insertion order."""

    __slots__ = ()

    def _widened(self, op, other):
        """op(self, other) in a wider ring holding both, or NotImplemented."""
        return NotImplemented

    def __sub__(self, other):
        operand = self._operand(other)
        if operand is None:
            return self._widened(operator.sub, other)
        return self + (-operand)

    def __rsub__(self, other):
        operand = self._operand(other)
        if operand is None:
            return self._widened(lambda wide, scalar: scalar - wide, other)
        return operand + (-self)


class GaussRat(Ring):
    """A Gaussian rational re + E*im with E**2 = -1.

    Values are immutable; all arithmetic returns new objects.  Mixed
    arithmetic with int and Fraction works in both operand orders.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", as_rat(re))
        object.__setattr__(self, "im", as_rat(im))

    @classmethod
    def _operand(cls, value):
        """`value` as a Gaussian rational, or None."""
        if isinstance(value, GaussRat):
            return value
        if isinstance(value, RATIONAL_TYPES):
            return cls(value)
        return None

    coerce = classmethod(_coerce)

    # -- predicates ------------------------------------------------------

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- involutions -----------------------------------------------------

    def conjugate(self) -> "GaussRat":
        """Complex conjugation E -> -E."""
        return GaussRat(self.re, -self.im)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return GaussRat(self.re + other, self.im)
        if isinstance(other, GaussRat):
            return GaussRat(self.re + other.re, self.im + other.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return GaussRat(self.re * other, self.im * other)
        if isinstance(other, GaussRat):
            return GaussRat(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return GaussRat(self.re / other, self.im / other)
        if isinstance(other, GaussRat):
            den = other.re * other.re + other.im * other.im
            if den == 0:
                raise ZeroDivisionError("division by zero GaussRat")
            num = self * other.conjugate()
            return GaussRat(num.re / den, num.im / den)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return GaussRat(other) / self
        return NotImplemented

    def __pow__(self, exponent: int):
        return power(self, exponent, GaussRat(1), operator.mul)

    # -- comparison / hashing / display -----------------------------------

    def __eq__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self):
        """Expression-syntax rendering, reparseable in point mode."""
        if self.im == 0:
            return str(self.re)
        mag = -self.im if self.im < 0 else self.im
        im_txt = "E" if mag == 1 else f"{mag}*E"
        if self.re == 0:
            return im_txt if self.im > 0 else f"-{im_txt}"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {im_txt}"


IOTA = GaussRat(0, 1)

# Every exact scalar: a rational or a Gaussian rational.
EXACT_SCALARS = RATIONAL_TYPES + (GaussRat,)


class Record(Frozen):
    """An immutable record: the base of the package's verdicts, reports
    and the parser's tokens.

    A subclass lists its fields as annotations, in order; a class
    attribute of the same name is that field's default.  Records are
    built from positional or keyword arguments, compare equal only to a
    record of the same class with equal fields, hash their fields, refuse
    assignment and deletion (`Frozen`) and print as ``Name(field=value, ...)``.

    It stands in for ``@dataclass(frozen=True)`` because the command line
    pays for every import on every run.  With compiled bytecode on a
    2-vCPU host (CPython 3.11, median of 21 ``python -X importtime``
    runs), importing `dataclasses` (with `inspect`, `ast` and `dis` behind
    it) took 11 ms and generating twenty frozen classes about 18 ms, of
    37 ms for ``import slicereg``; with this base that import takes 8 ms.
    The base reads the annotations once per class, as the strings they
    are, and generates no code.
    """

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) == len(fields) and not kwargs:
            self.__dict__.update(zip(fields, args))
            return
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(
                    f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(
                    f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        for key in fields:
            if key not in values:
                if key not in self._defaults:
                    raise TypeError(
                        f"{name}() missing required argument {key!r}")
                values[key] = self._defaults[key]
        self.__dict__.update(values)

    def _astuple(self):
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        text = ", ".join(f"{name}={self.__dict__[name]!r}"
                         for name in self._fields)
        return f"{type(self).__qualname__}({text})"

"""Dense univariate polynomials over an exact field, plus exact rational
linear algebra (row reduction, nullspace) for small linear systems.

A polynomial is an immutable tuple of coefficients, index = degree, with
no trailing zero; the empty tuple is the zero polynomial.  Coefficients
may be Fraction or GaussRat (any exact field scalar with +, *, /).

Rational polynomials run on scaled integers, and stay exact.  A product
scales each operand to integers over its common denominator, multiplies
once as big integers by Kronecker substitution (each operand packed into
one integer, a digit per coefficient, wide enough that no digit of the
product overflows), unpacks and divides by the two denominators.  `poly_gcd`
first tries a coprimality certificate modulo the prime p = 2**61 - 1: if p
divides neither leading coefficient of the integer-scaled inputs and their
gcd mod p is a constant, they are coprime over Q.  That is a proof: a
common factor over Q can be taken primitive in Z[z] (Gauss's lemma), it
divides both inputs in Z[z], its leading coefficient divides theirs and so
survives reduction mod p, and its image mod p divides the gcd mod p with
the same degree.  Every other input, and every GaussRat polynomial, takes
the monic Euclidean scheme over the field.

`Matrix` row reduction is fraction-free as well: rows are scaled to
integers and eliminated with integer row operations that divide out each
row's content, and only the final reduced rows are divided by their
pivots (see the class docstring).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import (BothZeroError, PolyDivisionByZeroError,
                     ZeroPolynomialError)
from .scalars import GaussRat


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls((value,))

    @classmethod
    def monomial(cls, degree: int, coeff=Fraction(1)) -> "Poly":
        return cls((0,) * degree + (coeff,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def leading(self):
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = _poly_operand(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _poly_operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _poly_operand(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            if not other:
                return Poly()
            return Poly(tuple(c * other for c in self.coeffs))
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            left = _integer_scaled(self.coeffs)
            right = _integer_scaled(other.coeffs)
            if left is not None and right is not None:
                den = left[1] * right[1]
                return Poly(tuple(Fraction(c, den)
                                  for c in _kronecker(left[0], right[0])))
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for a, ca in enumerate(self.coeffs):
                if not ca:
                    continue
                for b, cb in enumerate(other.coeffs):
                    out[a + b] += ca * cb
            return Poly(tuple(out))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = Poly((Fraction(1),))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        """Division with remainder: self = q*other + r, deg r < deg other."""
        other = _poly_operand(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise PolyDivisionByZeroError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * (dq + 1)
        for shift in range(dq, -1, -1):
            top = rem[shift + len(other.coeffs) - 1]
            if top:
                factor = top / lead
                quot[shift] = factor
                for m, cm in enumerate(other.coeffs):
                    rem[shift + m] -= factor * cm
        return Poly(tuple(quot)), Poly(tuple(rem[: len(other.coeffs) - 1]))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- evaluation ------------------------------------------------------------

    def __call__(self, z0):
        """Horner evaluation; the scalar kind follows the inputs."""
        acc = z0 * 0
        for c in reversed(self.coeffs):
            acc = acc * z0 + c
        return acc

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return Poly(tuple(c / lead for c in self.coeffs))

    # -- comparison / display ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = Poly((other,))
        if isinstance(other, Poly):
            if len(self.coeffs) != len(other.coeffs):
                return False
            return all(a == b for a, b in zip(self.coeffs, other.coeffs))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        from .parsing import render_poly
        return render_poly(self)


def _poly_operand(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction, GaussRat)):
        return Poly((value,))
    return None


def _integer_scaled(coeffs):
    """(numerators, denominator) with coeffs[k] = numerators[k] / denominator,
    or None unless every coefficient is an int or a Fraction."""
    if not all(isinstance(c, (int, Fraction)) for c in coeffs):
        return None
    den = lcm(*(c.denominator for c in coeffs))
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _kronecker(a, b):
    """The coefficients of the product of two nonzero integer polynomials.

    Each operand is packed into one integer, sum x_k * 2**(8*w*k), with
    digits of w bytes: wide enough that every product coefficient c has
    |c| < 2**(8*w - 1) = half.  Offsetting every digit by half makes it
    nonnegative, so packing and unpacking are byte copies, and the single
    big-integer multiply between them does the convolution.
    """
    bound = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
             + min(len(a), len(b)).bit_length())
    width = bound // 8 + 1
    half = 1 << (8 * width - 1)
    offset = half.to_bytes(width, "little")

    def pack(xs):
        digits = b"".join((x + half).to_bytes(width, "little") for x in xs)
        return (int.from_bytes(digits, "little")
                - int.from_bytes(offset * len(xs), "little"))

    n = len(a) + len(b) - 1
    product = pack(a) * pack(b) + int.from_bytes(offset * n, "little")
    digits = product.to_bytes(n * width, "little")
    return [int.from_bytes(digits[k:k + width], "little") - half
            for k in range(0, n * width, width)]


# The prime of the coprimality certificate (a Mersenne prime, 2**61 - 1).
_P = (1 << 61) - 1


def _rem_mod_p(a, b):
    """Remainder of a by b over Z/pZ; coefficient lists in ascending order
    with nonzero last entries, and the result trimmed the same way."""
    a = list(a)
    inv = pow(b[-1], -1, _P)
    db = len(b) - 1
    while len(a) > db:
        factor = a.pop() * inv % _P
        shift = len(a) - db
        for k in range(db):
            a[shift + k] = (a[shift + k] - factor * b[k]) % _P
        while a and not a[-1]:
            a.pop()
    return a


def _coprime_mod_p(a: Poly, b: Poly) -> bool:
    """True only when the nonzero a and b share no factor of positive
    degree over Q (the certificate of the module docstring).  False means
    "not shown", never "not coprime"."""
    left = _integer_scaled(a.coeffs)
    right = _integer_scaled(b.coeffs)
    if left is None or right is None:
        return False
    x = [c % _P for c in left[0]]
    y = [c % _P for c in right[0]]
    if not x[-1] or not y[-1]:
        return False
    while y:
        x, y = y, _rem_mod_p(x, y)
    return len(x) == 1


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor.

    Inputs that the mod-p certificate shows coprime return 1 at once.
    All others take the Euclidean scheme, with remainders renormalized
    to monic at every step so Fraction sizes stay tame at desk scale;
    coefficient arithmetic is exact regardless.
    """
    if a.is_zero and b.is_zero:
        raise BothZeroError("gcd(0, 0) is undefined")
    if not a.is_zero and not b.is_zero and _coprime_mod_p(a, b):
        return Poly((Fraction(1),))
    a, b = a.monic() if not a.is_zero else a, b.monic() if not b.is_zero else b
    while not b.is_zero:
        a, b = b, (a % b)
        if not b.is_zero:
            b = b.monic()
    return a.monic()


def poly_gcd_many(polys) -> Poly:
    """gcd of an iterable of polynomials; zero entries are ignored."""
    acc = None
    for p in polys:
        if p.is_zero:
            continue
        acc = p if acc is None else poly_gcd(acc, p)
        if acc.degree == 0:
            break
    if acc is None:
        raise BothZeroError("gcd of all-zero family is undefined")
    return acc.monic()


def _divide_linear(coeffs, z0):
    """Synthetic division by (z - z0).

    Returns (quotient coefficients ascending, remainder), where the
    remainder equals the value at z0.
    """
    acc = coeffs[-1] * 0
    partial = []
    for c in reversed(coeffs):
        acc = acc * z0 + c
        partial.append(acc)
    remainder = partial.pop()
    partial.reverse()
    return partial, remainder


def vanishing_order(p: Poly, z0) -> int:
    """The largest m such that (z - z0)**m divides p."""
    if p.is_zero:
        raise ZeroPolynomialError("vanishing order of 0 is undefined")
    order = 0
    coeffs = list(p.coeffs)
    while coeffs:
        quotient, remainder = _divide_linear(coeffs, z0)
        if remainder != 0:
            break
        order += 1
        coeffs = quotient
    return order


class Matrix:
    """A dense matrix of exact rationals, sized for desk-scale systems.

    Elimination runs on integers: each row is scaled by the lcm of its
    denominators, and Gauss-Jordan clears a column from a row r with
    r <- (p/g) * r - (a/g) * pivot_row (p the pivot, a the entry, g their
    gcd), then divides r by its content.  No fraction is formed until the
    end, when each pivot row is divided by its pivot.  The reduced row
    echelon form of a matrix is unique, so this is the same RREF, rank
    and nullspace that elimination over Q gives.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if not all(isinstance(e, (int, Fraction))
                   for row in entries for e in row):
            raise TypeError("matrix entries must be ints or Fractions")
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if any(len(r) != cols for r in entries):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def _integer_echelon(self):
        """(rows, pivots): the nonzero rows of the reduced echelon form,
        each a primitive integer row, in pivot order.  Row i divided by
        rows[i][pivots[i]] is row i of the RREF."""
        m = []
        for row in self.entries:
            ints = _integer_scaled(row)[0]
            content = gcd(*ints)
            if content > 1:
                ints = [e // content for e in ints]
            if content:
                m.append(ints)
        pivots = []
        r = 0
        for c in range(self.cols):
            # Any nonzero entry gives the same RREF; the smallest one keeps
            # the multipliers, and so the integers, small.
            pivot_row = None
            for k in range(r, len(m)):
                if m[k][c] and (pivot_row is None
                                or abs(m[k][c]) < abs(m[pivot_row][c])):
                    pivot_row = k
                    if abs(m[k][c]) == 1:
                        break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            prow = m[r]
            p = prow[c]
            for k, row in enumerate(m):
                a = row[c]
                if k == r or not a:
                    continue
                g = gcd(p, a)
                s, t = p // g, a // g
                row = [s * e - t * f for e, f in zip(row, prow)]
                content = gcd(*row)
                m[k] = [e // content for e in row] if content > 1 else row
            pivots.append(c)
            r += 1
            if r == len(m):
                break
        return m[:r], pivots

    def rref(self):
        """Reduced row echelon form; returns (rows, pivot column list)."""
        m, pivots = self._integer_echelon()
        reduced = [[Fraction(e, row[c]) for e in row]
                   for row, c in zip(m, pivots)]
        reduced += [[Fraction(0)] * self.cols
                    for _ in range(self.rows - len(reduced))]
        return reduced, pivots

    def rank(self) -> int:
        return len(self._integer_echelon()[1])

    def nullspace(self):
        """Exact basis of the right kernel {v : M v = 0}.

        Each basis vector has a 1 in its free coordinate and zeros in all
        other free coordinates, so the result is deterministic.  Empty list
        iff the kernel is trivial.
        """
        m, pivots = self._integer_echelon()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for row, pc in zip(m, pivots):
                v[pc] = Fraction(-row[fc], row[pc])
            basis.append(tuple(v))
        return basis

    def mul_vector(self, v):
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum((row[c] * v[c] for c in range(self.cols)),
                         Fraction(0)) for row in self.entries)

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.entries]!r})"

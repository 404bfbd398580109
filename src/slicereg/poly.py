"""Dense univariate polynomials over Q, plus exact linear algebra (row
reduction, nullspace) for small integer and rational systems.

A polynomial is stored as one stem component is: c_k = nums[k] / den,
with `nums` an integer list (no trailing zero; empty for the zero
polynomial) over one positive `den`, in lowest terms (gcd(den, every
entry) = 1).  The form is canonical, so `==` and `hash` read the
integers, and `coeffs` is a `Fraction` view.  Coefficients are ints or
Fractions (`_over_one_denominator`); a float or a Gaussian rational
raises TypeError.  The ring code that reads only this form (coercion,
sums, negation, scalar multiples, powers, `==`, `hash`) is written once,
in the base `IntegerRows` of `Poly` (one row) and `stem.StemPoly` (four);
its base `scalars.Ring` writes the differences of every ring value.

Operations run on the stored integers, and stay exact.  A sum brings both
operands to the lcm of their denominators.  A product runs through
`_kronecker`, the one packed-product kernel, which the stem product and
norm of `stem.py` share: each component list of an operand (one here,
four for a stem) is packed into one integer, a digit per coefficient, at
one width (`_product_width`, which also sizes the decision's norm compare
and the intertwiner checks) wide enough that no digit of the product
overflows; the packed components are multiplied as big integers
(Kronecker substitution), and each sum is unpacked once and divided by
the two denominators.  A list shorter than `_SHIFT_BELOW` is packed by
shifts and unpacked by masks, a longer one by one copy, through `array`
where a C integer type has the digit's width (`_pack` gives the sweep that
set the crossover).  Every path raises OverflowError on a digit that does
not fit the width and on a value that n digits cannot hold.

`_gcd_ints`, behind `poly_gcd_many`, `StemPoly.central_divisor` and the
equivalence decision, takes the heuristic gcd GCDHEU (Char, Geddes and
Gonnet, JSC 1989) on primitive integer lists a, b.  At xi = 2**(8*w),
evaluation at xi is `_pack` and the balanced xi-adic digits of an integer
(`_unpack`) read a polynomial h back.  From h(xi) = gcd(a(xi), b(xi)) the
candidate g = h / cont(h) is accepted only when it divides a and b
(`_divides`): for x = a and b, g(xi) must divide x(xi), and the quotient q
read back from x(xi) / g(xi) must satisfy q*g = x.  Balanced digits are
unique, so when the entries of x are below xi/2 and so is the bound
2**(bits(q) + bits(g) + bit_length(min(len q, len g))) on the
coefficients of q*g, q*g and x are both the digits of x(xi) and q*g = x
is proven without a product; otherwise one Kronecker product decides.  With
xi > 2*min(|a|, |b|) + 2 (max-norms) an accepted g is the gcd d: g
divides d = g*q in Z[z], so q(xi) divides cont(h) <= xi/2.  A root of q
is a root of a and b, of modulus below 1 + min(|a|, |b|) (Cauchy's
bound), so a q of positive degree would have
|q(xi)| > (xi - 1 - min(|a|, |b|)) > xi/2.  A constant g is 1 and needs
no check; an h(xi) below xi/2 is its own single balanced digit, so then
g = 1 is known without reading digits.  A family is reduced at one
point, chosen so that every list is below xi/4: the values x(xi) are
packed once (or handed in already packed, as the decision does with the
packs of its norm), divided by the contents, and the gcd of the lists
met so far is carried on as g(xi), so the next pair (g, x) has
xi > 2*|x| + 2 again.  When g divides the next list x, gcd(g, x) = g and
no GCDHEU runs: that is the common case of a planted divisor, whose
lists are constant multiples of one polynomial.  Once g is 1, the lists
left are not read.  Each failed candidate at least doubles w (enough to
pack both lists again) until one passes; xi only grows, so
xi > 2*min(|a|, |b|) + 2 still holds and the accepted g is the gcd.
The loop ends: for a = g*a', b = g*b', a' and b' coprime, h(xi) =
|g(xi)|*c, where c = gcd(a'(xi), b'(xi)) divides Res(a', b') != 0, as
Res = s*a' + t*b' with s, t in Z[z]; once xi/2 is above c*|g| and the
entries of a' and b', the candidate is g and `_divides` accepts it.

Row reduction is fraction-free as well: the integer kernel
(`_integer_echelon`, `_integer_nullspace`) clears columns by integer row
operations that divide out each row's content, and returns integer null
vectors.  `Matrix` is its rational face, for outside input.
"""

from __future__ import annotations

import operator
import sys
from array import array
from fractions import Fraction
from functools import reduce
from itertools import chain, zip_longest
from math import gcd, lcm

from .errors import (BothZeroError, PolyDivisionByZeroError,
                     ZeroPolynomialError)
from .scalars import EXACT_SCALARS, RATIONAL_TYPES, Frozen, Ring, as_rat, power


class IntegerRows(Ring):
    """The stored form that `Poly` and `stem.StemPoly` share, integer rows
    over one positive `den` in lowest terms, and the ring code that reads
    only that form (`scalars.Ring` subtracts).  A subclass builds itself
    (`__new__`, `_from_rows`), keeps its rows in `nums` (`_store` makes
    `nums` of the rows, `_rows` reads them back), names the scalars that
    `_operand` lifts to constants (`_scalars`) and adds its coefficient
    views (`coeff` hashes a constant), its product and its own methods."""

    __slots__ = ("nums", "den")
    _scalars = RATIONAL_TYPES

    @classmethod
    def _from_rows(cls, rows, den: int):
        """The value with rows rows[r] / den, for integer lists and den > 0,
        in lowest terms (`_lowest_terms`); the lists are trimmed in place
        and may be shared."""
        return cls._reduced(*_lowest_terms(rows, den))

    @classmethod
    def _reduced(cls, rows, den: int):
        """`_from_rows` for rows already trimmed and in lowest terms."""
        value = object.__new__(cls)
        object.__setattr__(value, "nums", cls._store(rows))
        object.__setattr__(value, "den", den)
        return value

    @classmethod
    def _operand(cls, value):
        """`value` as an element of this ring, or None."""
        if isinstance(value, cls):
            return value
        if isinstance(value, cls._scalars):
            return cls((value,))
        return None

    @classmethod
    def constant(cls, value):
        return cls((value,))

    @classmethod
    def monomial(cls, degree: int, coeff=1):
        """coeff * z^degree, degree >= 0: the constant's rows, shifted up."""
        if degree < 0:
            raise ValueError(f"monomial degree must be >= 0, got {degree}")
        const = cls.constant(coeff)
        return cls._from_rows([[0] * degree + xs if xs else xs
                               for xs in const._rows], const.den)

    @property
    def is_zero(self) -> bool:
        return not any(self._rows)

    def __bool__(self) -> bool:
        return any(self._rows)

    @property
    def degree(self) -> int:
        """Degree, with the convention that zero has -1."""
        return max(map(len, self._rows)) - 1

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        return self._from_rows(
            [[s * x + t * y for x, y in zip_longest(xs, ys, fillvalue=0)]
             for xs, ys in zip(self._rows, other._rows)], den)

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(-1)

    def _scaled(self, scalar):
        """The multiple by a rational a/b: rows times a, den times b."""
        num, den = scalar.as_integer_ratio()
        return self._from_rows([[num * x for x in xs] for xs in self._rows],
                               self.den * den)

    def __pow__(self, exponent: int):
        return power(self, exponent, self.constant(1), operator.mul)

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        # A constant equals the scalar it holds, so it hashes as that does.
        if self.degree <= 0:
            return hash(self.coeff(0))
        return hash((self.den, *map(tuple, self._rows)))


class Poly(IntegerRows):
    """c_k = nums[k] / den, in the integer form of the module docstring:
    one row, kept as the flat list `nums`."""

    __slots__ = ()
    _store = operator.itemgetter(0)

    def __new__(cls, coeffs=()):
        (nums,), den = _over_one_denominator((coeffs,))
        return cls._from_ints(nums, den)

    @classmethod
    def _from_ints(cls, nums, den: int = 1) -> "Poly":
        """The polynomial nums / den, for an integer list and den > 0 (see
        `_from_rows`)."""
        return cls._from_rows((nums,), den)

    @property
    def _rows(self) -> tuple:
        return (self.nums,)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as `Fraction`s, ascending, no trailing zero."""
        return tuple(_fractions(self.nums, self.den))

    def coeff(self, k: int) -> Fraction:
        nums = self.nums
        return Fraction(nums[k], self.den) if 0 <= k < len(nums) else _ZERO

    # -- product and division -------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return self._scaled(other)
        if isinstance(other, Poly):
            return Poly._from_rows(_kronecker(self._rows, other._rows),
                                   self.den * other.den)
        return NotImplemented

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Division with remainder: self = q*other + r, deg r < deg other,
        by `_pseudo_divmod` of the stored lists at s = |lead b|**(dq + 1)."""
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise PolyDivisionByZeroError("polynomial division by zero")
        b = other.nums
        dq = len(self.nums) - len(b)
        if dq < 0:
            return Poly(), self
        scale = abs(b[-1]) ** (dq + 1)
        quot, rem = _pseudo_divmod(self.nums, b, scale)
        den = scale * self.den
        return (Poly._from_ints([x * other.den for x in quot], den),
                Poly._from_ints(rem, den))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- evaluation ------------------------------------------------------------

    def __call__(self, z0):
        """Horner evaluation on the integers (`_divide_linear`), divided by
        den once; the scalar kind follows z0 (rational or Gaussian)."""
        return _divide_linear(self.nums, z0)[1] * Fraction(1, self.den)

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.nums[-1]
        if lead < 0:
            return Poly._from_ints([-x for x in self.nums], -lead)
        return Poly._from_ints(self.nums, lead)

    # -- display --------------------------------------------------------------

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        from .parsing import render_poly
        return render_poly(self)


_ZERO = Fraction(0)


def _over_one_denominator(columns):
    """Lists of exact rationals as (integer lists, their least common
    denominator), in lowest terms: a prime power p**e that divides the
    lcm exactly divides some denominator exactly, and that entry's
    numerator, prime to p, is scaled by a factor prime to p.  An entry
    that is not an int or a Fraction raises TypeError (`as_rat`)."""
    ratios = [[as_rat(x).as_integer_ratio() for x in col] for col in columns]
    den = lcm(*(d for col in ratios for _, d in col))
    return [[n * (den // d) for n, d in col] for col in ratios], den


def _lowest_terms(lists, den: int):
    """The rationals lists[r][k] / den, den > 0, as (lists, den) with the
    lists trimmed of trailing zeros (in place) and all of them and den
    divided by their gcd."""
    for xs in lists:
        while xs and not xs[-1]:
            xs.pop()
    if den != 1:
        g = gcd(den, *chain.from_iterable(lists))
        if g != 1:
            lists = [[x // g for x in xs] for xs in lists]
            den //= g
    return lists, den


def _pseudo_divmod(a, b, scale: int = 1):
    """(Q, R) with scale*a = Q*b + R, len R < len b, for integer lists a, b
    (b trimmed, nonzero): step k leaves multiples of |lead b|**(dq + 1 - k),
    dq = len a - len b, so each quotient entry divides exactly at
    scale = |lead b|**(dq + 1), and at scale 1 when b divides a in Z[z]."""
    n = len(b)
    dq = len(a) - n
    rem, quot = [scale * x for x in a], [0] * (dq + 1)
    for shift in range(dq, -1, -1):
        factor = quot[shift] = rem[shift + n - 1] // b[-1]
        for m, y in enumerate(b):
            rem[shift + m] -= factor * y
    return quot, rem[:n - 1]


def _fractions(xs, den: int) -> list:
    """The rationals x / den of an integer list."""
    if den == 1:
        return [Fraction(x) if x else _ZERO for x in xs]
    return [Fraction(x, den) if x else _ZERO for x in xs]


def _digit_width(bound: int) -> int:
    """Bytes per Kronecker digit for values v with |v| < 2**bound: the
    smallest w with 2**bound <= 2**(8*w - 1)."""
    return bound // 8 + 1


# Lists shorter than this are packed and unpacked by shifts and masks,
# longer ones by one copy (see `_pack` for the sweep that set it).
_SHIFT_BELOW = 40
# The `array` type of each digit width a C integer type has on this host.
_ARRAY_TYPES = {array(code).itemsize: code for code in "bhiq"}


def _pack(xs, width: int) -> int:
    """The integer sum x_k * 2**(8*width*k), for digits x_k in
    [-2**(8*width - 1), 2**(8*width - 1)); a digit out of that range
    raises OverflowError.

    Below `_SHIFT_BELOW` entries the range is checked once (min and max)
    and the digits go in by Horner's rule on shifts, highest first.  From
    there on, each digit offset by half = 2**(8*width - 1) is nonnegative:
    where a C integer type has the width (`_ARRAY_TYPES`), `array` stores
    the digits (its type refuses one out of range), and xor with the
    offsets adds them to the two's-complement bytes; at other widths, and
    on a big-endian host, `to_bytes` copies each digit plus half.
    The offsets are then taken off in one subtraction.  Each shift copies
    the whole accumulator, so shifting costs grow with the square of the
    length and the copies' about linearly.  Timed per call (microseconds,
    shifts / byte copy, CPython 3.11 on a shared 2-vCPU host; `_unpack`
    takes the same path):

        length              8        33        48       100       512
        width 2   pack  1.5/1.7   4.1/7.1   7.4/6.0    14/11   190/53
                unpack  1.4/3.0  7.8/10.4  7.9/12.6    16/27  284/159
        width 8   pack  1.6/2.2  10.4/9.2  10.0/7.8    35/23   637/65
                unpack  1.9/3.5 11.4/16.6 13.9/27.2    34/39  842/147
        width 16  pack  1.6/2.1   8.0/6.4   24/8.1     54/16  1779/88
                unpack  1.6/3.5 10.9/22.0   38/15.6    49/34 1489/242

    A pack followed by its unpack, best of 15, at lengths 33 / 40 / 48:
    width 2 19.2/27.8, 13.4/18.0, 14.4/22.7; width 8 16.3/19.4,
    22.3/28.0, 22.3/25.3; width 16 20.1/22.5, 32.2/25.0, 40.7/30.0.  Cold,
    with gc.collect() before each call as the benchmark runs an op (median
    of 600, pack + unpack) at lengths 17 / 25 / 33: width 4 41/55, 44/57,
    53/65; width 12 42/53, 50/57, 61/66; width 16 50/61, 67/69, 116/122.
    On 200 `decide` benchmark rounds (seed 1) the equivalence decision
    packs at most 33 entries, at widths 4 to 12.  Cold, `_pack` alone, byte
    copy / `array` at lengths 48 / 100 / 512 / 4096: width 2 17/14, 20/12,
    91/40, 374/129; width 8 18/14, 26/19, 78/45, 491/258.
    """
    half = 1 << (8 * width - 1)
    if len(xs) < _SHIFT_BELOW:
        if xs and not (-half <= min(xs) and max(xs) < half):
            raise OverflowError("digit out of range for the packing width")
        shift, acc = 8 * width, 0
        for x in reversed(xs):
            acc = (acc << shift) + x
        return acc
    offset = int.from_bytes(half.to_bytes(width, "little") * len(xs), "little")
    code = _ARRAY_TYPES.get(width)
    if code and sys.byteorder == "little":
        return (int.from_bytes(array(code, xs), "little") ^ offset) - offset
    digits = b"".join([(x + half).to_bytes(width, "little") for x in xs])
    return int.from_bytes(digits, "little") - offset


def _unpack(value: int, n: int, width: int) -> list:
    """The n balanced digits v_k, -2**(8*width - 1) <= v_k <
    2**(8*width - 1), of a packed integer: the inverse of `_pack`.  A
    value that n such digits cannot hold raises OverflowError.

    Below `_SHIFT_BELOW` digits each one is read by mask and shift, lowest
    first; a digit d of half = 2**(8*width - 1) or more is read as
    d - 2**(8*width) and adds one to the value left.  Whatever is left
    after n digits is out of range.  From there on, the offsets of `_pack`
    are added in one sum and the bytes are read back (`to_bytes` refuses
    a value out of range)."""
    shift = 8 * width
    half = 1 << (shift - 1)
    if n < _SHIFT_BELOW:
        mask, digits = (1 << shift) - 1, []
        for _ in range(n):
            digit = value & mask
            value >>= shift
            if digit >= half:
                digit -= mask + 1
                value += 1
            digits.append(digit)
        if value:
            raise OverflowError("value out of range for the unpacked digits")
        return digits
    offset = half.to_bytes(width, "little") * n
    digits = (value + int.from_bytes(offset, "little")).to_bytes(
        n * width, "little")
    return [int.from_bytes(digits[k:k + width], "little") - half
            for k in range(0, n * width, width)]


def _max_bits(xs) -> int:
    """The largest bit length of the integers xs (0 when there are none)."""
    return max(map(abs, xs), default=0).bit_length()


def _kronecker(left, right, product=lambda a, b: (a * b,)):
    """The product of two integer polynomials given by their component
    lists (one for a `Poly`, four for a stem), as component lists of
    length m + n - 1 for the longest lists m of `left` and n of `right`
    (untrimmed).  Each list is packed once at `_product_width` (one
    operand, when `right is left`); `product` multiplies the packed lists
    into packed sums (the default row by row, `algebra._mul_components`
    or `_inner_components` four by four), and each sum is unpacked once."""
    width = _product_width(left, right)
    packed = [_pack(xs, width) for xs in left]
    sums = product(*packed, *(packed if right is left
                              else (_pack(xs, width) for xs in right)))
    n = max(map(len, left)) + max(map(len, right)) - 1
    return [_unpack(acc, n, width) for acc in sums]


def _product_width(left, right) -> int:
    """The digit width at which these component lists multiply, in
    `_kronecker`, the decision's norm compare and the intertwiner checks:
    an output digit sums at most len(left) signed convolution
    coefficients, each of at most min(m, n) products of an entry of each
    side (m, n the longest lists), and (len(left) - 1).bit_length() bits
    over that bound cover the sum."""
    bits, m = _max_bits(chain.from_iterable(left)), max(map(len, left))
    right_bits, n = (bits, m) if right is left else (
        _max_bits(chain.from_iterable(right)), max(map(len, right)))
    return _digit_width(bits + right_bits + min(m, n).bit_length()
                        + (len(left) - 1).bit_length())


def _digits(value: int, width: int) -> list:
    """The integer polynomial h with h(xi) = value, xi = 2**(8*width), and
    balanced digits |h_k| <= xi/2 (trailing zeros dropped)."""
    digits = _unpack(value, abs(value).bit_length() // (8 * width) + 2, width)
    while digits and not digits[-1]:
        digits.pop()
    return digits


def _divides(g, at_g, x, at_x, width: int) -> bool:
    """Whether the integer list g divides x in Z[z], given at_g = g(xi) and
    at_x = x(xi) at xi = 2**(8*width): exact division at xi, then q*g = x
    for the quotient q read back, proven by the bound when x and q*g are
    balanced digits of at_x (module docstring), else by the product."""
    at_q, rem = divmod(at_x, at_g)
    if rem:
        return False
    q = _digits(at_q, width)
    if max(_max_bits(q) + _max_bits(g) + min(len(q), len(g)).bit_length(),
           _max_bits(x)) < 8 * width:
        return True
    return _kronecker([q], [g]) == [x]


def _heu_gcd(a, b, width: int, at_a: int, at_b: int):
    """(g, g(xi)) for the primitive gcd g of two nonzero primitive integer
    lists a, b, given with at_a = a(xi) and at_b = b(xi) at
    xi = 2**(8*width) > 2*min(|a|, |b|) + 2: GCDHEU from xi on, widening
    the point until a candidate divides both (module docstring).  A
    widened point also packs the larger list, which xi need not bound."""
    point = width
    while True:
        at_h = gcd(at_a, at_b)
        if at_h.bit_length() < 8 * width:
            # Below xi/2 the balanced digits of at_h are at_h alone, so h is
            # a constant and g is 1; above it h has a positive degree.
            return [1], 1
        h = _digits(at_h, width)
        content = gcd(*h)
        g, at_g = [c // content for c in h], at_h // content
        if (_divides(g, at_g, a, at_a, width)
                and _divides(g, at_g, b, at_b, width)):
            break
        width = max(2 * width, _digit_width(max(_max_bits(a),
                                                _max_bits(b)) + 1))
        at_a, at_b = _pack(a, width), _pack(b, width)
    if width == point:
        return g, at_g
    # g(xi) at the given point by Horner's rule, for entries of any size.
    return g, reduce(lambda acc, c: (acc << 8 * point) + c, reversed(g), 0)


def _gcd_ints(lists, packed=None, width: int = 0):
    """The primitive gcd, leading coefficient positive, of the nonempty
    (trimmed) integer lists: equal for two families iff their monic gcds
    are.  `packed`, when given, holds the lists packed at `width` bytes,
    with every entry below 2**(8*width - 2); otherwise they are packed here
    once a list of positive degree comes up.  A list that the gcd met so
    far divides leaves it unchanged, and once that gcd or a list is a
    constant the lists left are not read."""
    g = None
    for k, x in enumerate(lists):
        if len(x) == 1:
            # A primitive constant is +-1, and no later list changes it.
            return [1]
        if not x:
            continue
        if packed is None:
            width = _digit_width(max(map(_max_bits, lists)) + 1)
            packed = [_pack(y, width) for y in lists]
        content, at_x = gcd(*x), packed[k]
        if content > 1:
            x, at_x = [c // content for c in x], at_x // content
        if g is None:
            g, at_g = x, at_x
        elif not _divides(g, at_g, x, at_x, width):
            g, at_g = _heu_gcd(g, x, width, at_g, at_x)
        if len(g) == 1:
            return [1]
    return g if g[-1] > 0 else [-c for c in g]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor (see `poly_gcd_many`)."""
    if a.is_zero and b.is_zero:
        raise BothZeroError("gcd(0, 0) is undefined")
    return poly_gcd_many((a, b))


def poly_gcd_many(polys) -> Poly:
    """Monic gcd of an iterable of polynomials; zero entries are ignored.
    It is `_gcd_ints` of the stored integer lists: a denominator scales a
    polynomial by a constant, which leaves the monic gcd unchanged."""
    lists = [p.nums for p in polys if p.nums]
    if not lists:
        raise BothZeroError("gcd of all-zero family is undefined")
    return Poly._from_ints(_gcd_ints(lists)).monic()


def _divide_linear(coeffs, z0):
    """Synthetic division by (z - z0), which is Horner's rule at z0.

    Returns (quotient coefficients ascending, remainder), where the
    remainder equals the value at z0 (z0 * 0 for no coefficients); a z0
    that is not an exact scalar (a float, say) raises TypeError.
    """
    if not isinstance(z0, EXACT_SCALARS):
        raise TypeError(f"expected an exact scalar, got {type(z0).__name__}")
    acc = z0 * 0
    partial = []
    for c in reversed(coeffs):
        acc = acc * z0 + c
        partial.append(acc)
    return partial[-2::-1], acc


def vanishing_order(p: Poly, z0) -> int:
    """The largest m such that (z - z0)**m divides p."""
    if p.is_zero:
        raise ZeroPolynomialError("vanishing order of 0 is undefined")
    order = 0
    coeffs = p.nums
    while coeffs:
        quotient, remainder = _divide_linear(coeffs, z0)
        if remainder != 0:
            break
        order += 1
        coeffs = quotient
    return order


def _integer_echelon(rows, cols: int):
    """(rows, pivots): the nonzero rows of the RREF of the matrix with these
    integer rows and `cols` columns, each a primitive integer row, in pivot
    order; row i over rows[i][pivots[i]] is row i of the RREF.  Gauss-Jordan
    clears a column from a row r with r <- (p/g) * r - (a/g) * pivot_row
    (p the pivot, a the entry, g their gcd), then divides r by its content,
    so no fraction is formed; the RREF is unique, so it is the one that
    elimination over Q gives.  The input rows are not changed."""
    m = []
    for row in rows:
        content = gcd(*row)
        if content > 1:
            row = [e // content for e in row]
        if content:
            m.append(row)
    pivots = []
    r = 0
    for c in range(cols):
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


def _integer_nullspace(rows, cols: int) -> list:
    """A basis of the right kernel of the matrix with these integer rows and
    `cols` columns: one integer list per free column of the RREF, in column
    order, the RREF's null vector (1 in its free column, 0 in the others)
    scaled to the primitive integer vector, so its free entry, the last
    nonzero one, is positive.  Empty iff the kernel is trivial."""
    m, pivots = _integer_echelon(rows, cols)
    basis = []
    for fc in sorted(set(range(cols)).difference(pivots)):
        den = lcm(*(row[pc] for row, pc in zip(m, pivots) if row[fc]))
        v = [0] * cols
        v[fc] = den
        for row, pc in zip(m, pivots):
            v[pc] = -row[fc] * (den // row[pc])
        content = gcd(*v)
        basis.append([x // content for x in v] if content > 1 else v)
    return basis


class Matrix(Frozen):
    """A dense matrix of exact rationals, sized for desk-scale systems: the
    rational face of the integer kernel.  The entries are checked, each row
    is scaled to integers, and `Fraction`s come back at the end."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if not all(isinstance(e, RATIONAL_TYPES)
                   for row in entries for e in row):
            raise TypeError("matrix entries must be ints or Fractions")
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if any(len(r) != cols for r in entries):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def _integer_rows(self) -> list:
        return _over_one_denominator(self.entries)[0]

    def nullspace(self):
        """Exact basis of the right kernel {v : M v = 0}, empty iff it is
        trivial: each vector has a 1 in its free coordinate and zeros in the
        other free coordinates, so the result is deterministic."""
        basis = []
        for v in _integer_nullspace(self._integer_rows(), self.cols):
            den = next(filter(None, reversed(v)))
            basis.append(tuple(Fraction(x, den) for x in v))
        return basis

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.entries]!r})"

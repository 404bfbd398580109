"""Shared randomized-input helpers for the test suite.

All generators take an explicit random.Random so every test run is
reproducible from its seed.  Coefficient sizes default to the desk-scale
bounds used throughout (numerators and denominators up to 9).
"""

from __future__ import annotations

import math
import operator
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

from slicereg import (ConjugatorReport, CQuat, CQuatF, GaussRat, Matrix,
                      NotInWError, Poly, Quaternion, SlicePreservingError,
                      SO3Matrix, StemPoly, TruncSeries, ZeroAlphaError,
                      ZeroFunctionError, ZeroPolynomialError)
from slicereg import poly
from slicereg.algebra import _mul_components
from slicereg.parsing import render_stem
from slicereg.poly import _kronecker, _over_one_denominator
from slicereg.scalars import Record
from slicereg.series import _cut, _majorant


# Settings of `slicereg.poly` that send every `_pack` and `_unpack` call
# down one path: shifts and masks; `array` for `_pack` at digit widths of
# 1, 2, 4 and 8 bytes (the byte copy at the others and in `_unpack`); or,
# as on a big-endian host, the byte copy at every width.
PACKING_BRANCHES = {
    "shifts": {"_SHIFT_BELOW": 10 ** 9, "sys": sys},
    "bytes": {"_SHIFT_BELOW": 0, "sys": SimpleNamespace(byteorder="big")},
    "array": {"_SHIFT_BELOW": 0, "sys": sys},
}


def use_packing_branch(monkeypatch, branch: str) -> None:
    """Send `_pack` and `_unpack` down one path of `PACKING_BRANCHES`."""
    for name, value in PACKING_BRANCHES[branch].items():
        monkeypatch.setattr(poly, name, value)


def rand_fraction(rng: random.Random, max_num: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def rand_gaussrat(rng: random.Random) -> GaussRat:
    return GaussRat(rand_fraction(rng), rand_fraction(rng))


def rand_quaternion(rng: random.Random) -> Quaternion:
    return Quaternion(*(rand_fraction(rng) for _ in range(4)))


def rand_nonzero_quaternion(rng: random.Random) -> Quaternion:
    while True:
        q = rand_quaternion(rng)
        if q:
            return q


def rand_pure_imaginary_quaternion(rng: random.Random) -> Quaternion:
    while True:
        q = Quaternion(0, rand_fraction(rng), rand_fraction(rng),
                       rand_fraction(rng))
        if q:
            return q


def rand_cquat(rng: random.Random) -> CQuat:
    return CQuat(*(rand_gaussrat(rng) for _ in range(4)))


def rand_invertible_cquat(rng: random.Random) -> CQuat:
    while True:
        x = rand_cquat(rng)
        if x.norm():
            return x


def rand_poly(rng: random.Random, max_degree: int = 5) -> Poly:
    return Poly([rand_fraction(rng) for _ in range(rng.randint(0, max_degree + 1))])


def rand_stem(rng: random.Random, max_degree: int = 5) -> StemPoly:
    return StemPoly([rand_quaternion(rng)
                     for _ in range(rng.randint(1, max_degree + 1))])


def rand_stem_nonslice(rng: random.Random, max_degree: int = 5) -> StemPoly:
    while True:
        stem = rand_stem(rng, max_degree)
        if not stem.is_slice_preserving():
            return stem


def stem_from_parts(parts) -> StemPoly:
    """The stem with these four component `Poly`s (any iterable), brought
    to the lcm of their denominators."""
    parts = tuple(parts)
    den = math.lcm(*(p.den for p in parts))
    return StemPoly._from_rows([[x * (den // p.den) for x in p.nums]
                                for p in parts], den)


def reference_remove_central_divisor(stem: StemPoly):
    """F = lam * Ftilde on the component `Poly`s: lam the monic divisor
    polynomial, and each trace-free part divided by it with
    `Poly.__divmod__`: the reference that `StemPoly.remove_central_divisor`
    is checked against."""
    if stem.is_zero:
        raise ZeroFunctionError("cannot factor the zero function")
    if stem.is_slice_preserving():
        raise SlicePreservingError(
            "central divisor undefined for slice preserving functions")
    if not stem.trace().is_zero:
        raise ValueError("remove_central_divisor needs a trace-free input")
    lam = stem.central_divisor().gcd_poly
    reduced = [Poly()]
    for w in stem.parts[1:]:
        q, r = divmod(w, lam)
        if not r.is_zero:
            raise AssertionError("gcd does not divide a component")
        reduced.append(q)
    return lam, stem_from_parts(reduced)


def conjugate_stem(alpha: Quaternion, stem: StemPoly) -> StemPoly:
    """alpha * F * alpha**-1 coefficientwise (constant conjugator)."""
    inv = alpha.inverse()
    return StemPoly([alpha * c * inv for c in stem.coeffs])


def convolve_stems(left: StemPoly, right: StemPoly) -> StemPoly:
    """The stem product as a coefficient convolution of Quaternion
    products: the reference that `StemPoly.star` is checked against."""
    if left.is_zero or right.is_zero:
        return StemPoly()
    out = [Quaternion()] * (len(left.coeffs) + len(right.coeffs) - 1)
    for a, ca in enumerate(left.coeffs):
        for b, cb in enumerate(right.coeffs):
            out[a + b] += ca * cb
    return StemPoly(out)


def eval_slice_split(stem: StemPoly, q) -> Quaternion:
    """The value of the slice regular polynomial at a quaternion through
    the center + imaginary-direction route: the reference that
    `StemPoly.eval_slice` is checked against.

    Writing q = x + v with v pure imaginary and norm(v) = n, the powers
    (x + w)^k with w*w = -n split into even and odd parts in w, all with
    rational coefficients, and the value is P + v*B.  Exact, and equal to
    the direct power sum for every rational quaternion.
    """
    q = Quaternion.coerce(q)
    x = q.c0
    v = q.imag()
    n = v.norm()
    even, odd = Fraction(1), Fraction(0)
    p_sum = Quaternion()
    b_sum = Quaternion()
    for c in stem.coeffs:
        p_sum += c * even
        b_sum += c * odd
        even, odd = even * x - n * odd, even + odd * x
    return p_sum + v * b_sum


def leading(p: Poly) -> Fraction:
    """The leading coefficient of a nonzero polynomial."""
    if p.is_zero:
        raise ZeroPolynomialError("zero polynomial has no leading coefficient")
    return Fraction(p.nums[-1], p.den)


def complex_conjugate(x: CQuat) -> CQuat:
    """Complex conjugation E -> -E, componentwise.  Commutes with conj."""
    return CQuat(*(c.conjugate() for c in x.components()))


def so3_transpose(m: SO3Matrix) -> SO3Matrix:
    return SO3Matrix(tuple(zip(*m.rows)))


def so3_apply(m: SO3Matrix, v: CQuat) -> CQuat:
    """m applied to a trace-free element, coordinates over (i, j, k)."""
    if v.c0:
        raise NotInWError("SO3Matrix acts on the trace-free part only")
    coords = (v.c1, v.c2, v.c3)
    return CQuat(GaussRat(0), *(sum((row[c] * coords[c] for c in range(3)),
                                    GaussRat(0)) for row in m.rows))


def series_from_stem(stem: StemPoly, order: int | None = None) -> TruncSeries:
    """The series of a stem cut to `order` (default: one more than its
    degree).  Cut below the degree, the dropped part is still a polynomial,
    so a factorial majorant over the original coefficients stays valid."""
    if order is None:
        order = max(stem.degree + 1, 1)
    if order > stem.degree:
        return TruncSeries(order, stem)
    return TruncSeries(order, _cut(stem, order), _majorant(stem), False)


def _relation_block(c, d):
    """The integer 4x4 matrix of a -> c * a - a * d on the components
    (1, i, j, k) of a, for c and d given by their components: column t is
    the image c * e_t - e_t * d of the unit e_t."""
    units = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    return list(zip(*[map(operator.sub, _mul_components(*c, *e),
                          _mul_components(*e, *d)) for e in units]))


def reference_find_intertwiner(first: StemPoly, second: StemPoly,
                               dmax: int) -> list:
    """The intertwiner search on the rational `Matrix`: both relations on
    all unknowns, stacked as block-Toeplitz strips of `_relation_block`
    (no early exit on trace or norm, no generator), handed to
    `Matrix.nullspace`, each `Fraction` kernel vector scaled back to
    integers, the two-relation check `stacked_relations_hold`, and the
    normalization of `normalize_intertwiner` as a rational multiple: the
    reference that `find_intertwiner` is checked against."""
    size = max(first.degree, second.degree) + 1
    den = math.lcm(first.den, second.den)
    f, h = ([[x * (den // stem.den) for x in xs] + [0] * (size - len(xs))
             for xs in stem.nums] for stem in (first, second))
    relations = ([_relation_block(c, d) for c, d in zip(zip(*f), zip(*h))],
                 [_relation_block(d, c) for c, d in zip(zip(*f), zip(*h))])
    top = dmax + max(first.degree, second.degree, 0)
    rows = []
    for blocks in relations:
        for n in range(top + 1):
            for r in range(4):
                row = []
                for p in range(dmax + 1):
                    q = n - p
                    row += blocks[q][r] if 0 <= q < len(blocks) else [0] * 4
                rows.append(row)
    scaled = [_over_one_denominator((vec,))
              for vec in Matrix(rows).nullspace()]
    if not stacked_relations_hold(f, h, [[nums[r::4] for r in range(4)]
                                         for (nums,), _ in scaled], top):
        raise AssertionError("kernel vector failed re-verification")
    basis = []
    for (nums,), vec_den in scaled:
        alpha = StemPoly._from_rows([nums[r::4] for r in range(4)], vec_den)
        # Over the first nonzero component of the lowest-degree coefficient.
        lead = next(xs[k] for k in range(alpha.degree + 1)
                    for xs in alpha.nums if k < len(xs) and xs[k])
        basis.append(alpha * Fraction(alpha.den, lead))
    return basis


def stacked_relations_hold(f, h, kernel, top: int) -> bool:
    """Whether every vector of kernel, four integer component lists of at
    most top + 1 entries each, intertwines the integer lists f and h of F
    and H over one denominator in both orders: the vectors stacked into
    one stem S, vector i at z^(i*(top + 1)), and F S against S H and S F
    against H S through `_kronecker`.  The two-relation check that the
    search's check on the trace-free parts is checked against."""
    size = max(map(len, (*f, *h)))
    f, h = ([xs + [0] * (size - len(xs)) for xs in lists] for lists in (f, h))
    stacked = [[], [], [], []]
    for vec in kernel:
        for comp, xs in zip(stacked, vec):
            comp += xs + [0] * (top + 1 - len(xs))
    return (_kronecker(f, stacked, _mul_components)
            == _kronecker(stacked, h, _mul_components)
            and _kronecker(stacked, f, _mul_components)
            == _kronecker(h, stacked, _mul_components))


def reference_verify_conjugator(first: StemPoly, second: StemPoly,
                                alpha) -> ConjugatorReport:
    """The conjugator check on product stems: alpha * F against H * alpha,
    and alpha^c * H * alpha against F * norm(alpha) when that norm is a
    nonzero constant, each as two `StemPoly.star` products brought to
    lowest terms and compared: the reference that `verify_conjugator` is
    checked against."""
    if not isinstance(alpha, StemPoly):
        alpha = StemPoly((alpha,))
    if alpha.is_zero:
        raise ZeroAlphaError("conjugator candidate must be nonzero")
    intertwines = alpha.star(first) == second.star(alpha)
    norm_alpha = alpha.norm()
    invertible = norm_alpha.degree == 0 and not norm_alpha.is_zero
    identity = None
    if invertible:
        c = norm_alpha.coeff(0)
        identity = alpha.conj().star(second).star(alpha) == first * c
    return ConjugatorReport(intertwines, norm_alpha, invertible, identity)


def reference_stem_views(quats) -> dict:
    """The views of the stem with these quaternion coefficients, taken
    from the list alone in the form of four rational component `Poly`s:
    `parts`, `coeffs` (trailing zeros dropped), `repr`, and `str` (the
    renderer applied to those parts).  The reference that the views of a
    stem stored in integers are checked against."""
    quats = [Quaternion.coerce(q) for q in quats]
    while quats and not quats[-1]:
        quats.pop()
    parts = tuple(Poly([q.components()[r] for q in quats]) for r in range(4))
    return {"parts": parts, "coeffs": tuple(quats),
            "repr": f"StemPoly({quats!r})",
            "str": render_stem(SimpleNamespace(is_zero=not quats,
                                               parts=parts))}


def truncated_convolution(left: TruncSeries, right: TruncSeries) -> TruncSeries:
    """The series product as a convolution of Quaternion products cut at
    the smaller order, with the majorant and polynomial flag derived
    directly: the reference that `TruncSeries.star` is checked against."""
    n = min(left.order, right.order)
    out = [Quaternion()] * n
    for a in range(n):
        for b in range(n - a):
            out[a + b] += left.coeffs[a] * right.coeffs[b]
    degrees = [max((k for k, c in enumerate(s.coeffs) if c), default=-1)
               for s in (left, right)]
    polynomial = (left.is_polynomial and right.is_polynomial
                  and sum(degrees) < n)
    return TruncSeries(n, out, (left.majorant[0] * right.majorant[0],
                                left.majorant[1] + right.majorant[1]),
                       polynomial)


def reference_taylor_series(kind: str, order: int) -> TruncSeries:
    """The named Taylor series from one `Fraction` and one `Quaternion`
    per coefficient, brought to one denominator by `StemPoly`: the
    reference that `taylor_series` is checked against."""
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


def reference_eval_numeric(series: TruncSeries, q: CQuatF) -> CQuatF:
    """Horner's rule over the padded Quaternion coefficients, each turned
    into floats as it is reached, with the quaternion product written
    out: the bit-for-bit reference for the value of
    `TruncSeries.eval_numeric`."""
    acc = CQuatF(0, 0, 0, 0)
    for c in reversed(series.coeffs):
        a0, a1, a2, a3 = q.components()
        b0, b1, b2, b3 = acc.components()
        acc = CQuatF(a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                     a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                     a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                     a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)
        acc = acc + CQuatF(float(c.c0), float(c.c1), float(c.c2),
                           float(c.c3))
    return acc


# -- a reference syntax tree for parser tests ---------------------------------

class RationalLit(Record):
    value: Fraction


class Unit(Record):
    name: str


class Var(Record):
    name: str


class Neg(Record):
    child: object


class Add(Record):
    left: object
    right: object


class Sub(Record):
    left: object
    right: object


class Mul(Record):
    left: object
    right: object


class Pow(Record):
    base: object
    exponent: int


REFERENCE_UNITS = {
    "i": CQuat(0, 1), "j": CQuat(0, 0, 1), "k": CQuat(0, 0, 0, 1),
    "E": CQuat(GaussRat(0, 1)),
}


def render_tree(node) -> str:
    """The text of a reference tree.  Every operand is parenthesized
    except the left operand of a sum or product chain, so a chain reads
    flat (``(a) - (b) + (c)``) and the parser's associativity decides
    its value."""
    if isinstance(node, RationalLit):
        return f"{node.value.numerator}/{node.value.denominator}"
    if isinstance(node, (Unit, Var)):
        return node.name
    if isinstance(node, Neg):
        return f"-({render_tree(node.child)})"
    if isinstance(node, Pow):
        return f"({render_tree(node.base)})^{node.exponent}"
    chain = (Mul,) if isinstance(node, Mul) else (Add, Sub)
    left = render_tree(node.left)
    if not isinstance(node.left, chain):
        left = f"({left})"
    op = {Add: " + ", Sub: " - ", Mul: "*"}[type(node)]
    return f"{left}{op}({render_tree(node.right)})"


def reference_value(node) -> list:
    """The dense CQuat coefficient list (ascending, not trimmed, so its
    length is one more than the degree as written) of a reference tree,
    by recursion and coefficient convolution in written order: the
    reference that `parse_stem` and `parse_point` are checked against.
    No mode checks and no limits."""
    if isinstance(node, RationalLit):
        return [CQuat(GaussRat(node.value))]
    if isinstance(node, Unit):
        return [REFERENCE_UNITS[node.name]]
    if isinstance(node, Var):
        return [CQuat(), CQuat(1)]
    if isinstance(node, Neg):
        return [-c for c in reference_value(node.child)]
    if isinstance(node, Pow):
        base = reference_value(node.base)
        out = [CQuat(1)]
        for _ in range(node.exponent):
            out = reference_convolve(out, base)
        return out
    left, right = reference_value(node.left), reference_value(node.right)
    if isinstance(node, Mul):
        return reference_convolve(left, right)
    if isinstance(node, Sub):
        right = [-c for c in right]
    n = max(len(left), len(right))
    left += [CQuat()] * (n - len(left))
    right += [CQuat()] * (n - len(right))
    return [a + b for a, b in zip(left, right)]


def reference_convolve(left: list, right: list) -> list:
    """The product of two dense CQuat coefficient lists (ascending, not
    trimmed) by coefficient convolution in written order."""
    out = [CQuat() for _ in range(len(left) + len(right) - 1)]
    for a, ca in enumerate(left):
        for b, cb in enumerate(right):
            out[a + b] += ca * cb
    return out

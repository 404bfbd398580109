import operator
import random
from fractions import Fraction
from itertools import chain, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicereg import (SLICE_PRESERVING, CQuat, Divisor, GaussRat, Poly,
                      Quaternion, R3Elem, R3StemPoly, SlicePreservingError,
                      StemPoly, ZeroFunctionError, parse_stem)
from slicereg.algebra import QI, QJ, QK

from support import (PACKING_BRANCHES, complex_conjugate, conjugate_stem,
                     convolve_stems, eval_slice_split, rand_fraction,
                     rand_nonzero_quaternion, rand_quaternion, rand_stem,
                     rand_stem_nonslice, reference_remove_central_divisor,
                     reference_stem_views, series_from_stem, stem_from_parts,
                     use_packing_branch)

IOTA = GaussRat(0, 1)

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)
quaternions = st.builds(Quaternion, fractions, fractions, fractions, fractions)
stems = st.builds(StemPoly, st.lists(quaternions, max_size=8))
# Zero-heavy components and denominators from 1 to 10**12, so the two
# operands of a product rarely share a denominator.
mixed_fractions = st.one_of(
    st.just(Fraction(0)), fractions,
    st.fractions(min_value=-10 ** 12, max_value=10 ** 12,
                 max_denominator=10 ** 12))
mixed_quaternions = st.builds(Quaternion, mixed_fractions, mixed_fractions,
                              mixed_fractions, mixed_fractions)
mixed_stems = st.builds(StemPoly, st.lists(mixed_quaternions, max_size=8))

F_PAIR = parse_stem("i + z*j + (1/2)*z^2*k")
G_PAIR = parse_stem("(1 + (1/2)*z^2)*i")
QUARTIC = Poly([1, 0, 1, 0, Fraction(1, 4)])
ZP = Poly.monomial(1)


def test_monomial_shifts_the_rows_of_the_constant():
    """`monomial` builds its rows from the constant's, and equals the
    value built from the whole coefficient list; a negative degree is
    refused rather than dropped."""
    for cls, k in product((Poly, StemPoly), (-1, -3)):
        with pytest.raises(ValueError):
            cls.monomial(k)
    for k in (0, 1, 7):
        for c in (0, 1, -3, Fraction(-4, 6)):
            assert Poly.monomial(k, c) == Poly([0] * k + [c])
            assert StemPoly.monomial(k, c) == StemPoly([0] * k + [c])
        for q in (QI, Quaternion(Fraction(1, 2), 0, -3, Fraction(2, 3))):
            assert StemPoly.monomial(k, q) == StemPoly([0] * k + [q])
            assert StemPoly.monomial(k, q).coeffs == (0,) * k + (q,)


def test_star_product_values():
    left = StemPoly([Quaternion(1), QI])                 # 1 + i z
    right = StemPoly([Quaternion(1, 0, 1), QJ])          # 1 + j(1 + z)
    product = left.star(right)
    expected = StemPoly([Quaternion(1, 0, 1),            # 1 + j
                         Quaternion(0, 1, 1, 1),         # (i + j + k) z
                         QK])                            # k z^2
    assert product == expected
    assert F_PAIR.star(StemPoly.constant(1)) == F_PAIR
    assert StemPoly([0, QI]).star(StemPoly([0, QJ])) == StemPoly([0, 0, QK])
    with pytest.raises(TypeError, match="star expects"):
        F_PAIR.star("x")


def test_star_preserves_written_factor_order():
    zi = StemPoly([0, QI])
    zj = StemPoly([0, QJ])
    assert zj.star(zi) == StemPoly([0, 0, -QK])
    assert zi.star(zj) != zj.star(zi)


@given(mixed_stems, mixed_stems)
def test_star_matches_the_quaternion_convolution(left, right):
    product = left.star(right)
    assert product == convolve_stems(left, right)
    assert repr(product) == repr(convolve_stems(left, right))
    assert all(type(x) is Fraction for c in product.coeffs
               for x in c.components())


def test_star_edge_cases_match_the_quaternion_convolution():
    third = Quaternion(Fraction(1, 3), 0, Fraction(-2, 3))
    seventh = Quaternion(0, Fraction(5, 7), 0, Fraction(1, 14))
    cases = [
        (StemPoly(), F_PAIR), (F_PAIR, StemPoly()), (StemPoly(), StemPoly()),
        (StemPoly([third]), StemPoly([seventh])),              # degree 0
        (StemPoly([QI]), StemPoly([QI])),                      # i * i = -1
        (StemPoly([third, 0, seventh]), StemPoly([seventh, third])),
        (StemPoly([0, 0, Fraction(1, 6)]), StemPoly([QK * Fraction(3, 5)])),
        (StemPoly([Fraction(10 ** 30, 7), QJ * (2 ** 70)]),
         StemPoly([QI * Fraction(1, 3 ** 40), Fraction(-1, 2)])),
    ]
    for left, right in cases:
        assert left.star(right) == convolve_stems(left, right)
        assert right.star(left) == convolve_stems(right, left)
    assert StemPoly([third]).star(seventh) == StemPoly([third * seventh])
    assert F_PAIR.star(Fraction(1, 2)) == F_PAIR * Fraction(1, 2)
    assert F_PAIR.star(0) == StemPoly()


# (1 + i + j + k) times each of these right-hand sign patterns makes all
# four signed products of component r (1, i, j, k in turn) equal to +1,
# e.g. (1 + i + j + k)(1 - i - j - k) = 4.
_ALIGNED_SIGNS = ((1, -1, -1, -1), (1, 1, -1, 1), (1, 1, 1, -1), (1, -1, 1, 1))


def _ints(stem):
    return [[int(x) for x in p.coeffs] for p in stem.parts]


@pytest.mark.parametrize("bits", [1, 7, 8, 15, 16, 26, 63, 64])
def test_star_digit_width_holds_at_the_worst_case(bits, monkeypatch):
    """Every coefficient +-(2**bits - 1), signed so that the four products
    of one component add: the largest digits the packed product can have,
    against the quaternion convolution, on every packing path."""
    for branch in PACKING_BRANCHES:
        use_packing_branch(monkeypatch, branch)
        _check_star_at_the_worst_case(bits)


def _check_star_at_the_worst_case(bits):
    from slicereg.algebra import _mul_components
    from slicereg.poly import _kronecker
    c = 2 ** bits - 1
    lengths = (1, 2, 3, 4, 7, 8)
    for r, signs in enumerate(_ALIGNED_SIGNS):
        sign = -1 if r % 2 else 1      # the most negative digits as well
        lcoef = Quaternion(*(sign * c,) * 4)
        rcoef = Quaternion(*(s * c for s in signs))
        top = sign * 4 * c * c
        assert (lcoef * rcoef).components()[r] == top
        for m, n in ([(m, n) for m in lengths for n in lengths]
                     + [(256, 1), (1, 256)]):
            left, right = StemPoly([lcoef] * m), StemPoly([rcoef] * n)
            expected = convolve_stems(left, right)
            assert left.star(right) == expected
            assert _kronecker(_ints(left), _ints(right),
                              _mul_components) == [
                [p.coeff(k) for k in range(m + n - 1)] for p in expected.parts]
        # Up to 256 products add in one digit here; the convolution is
        # taken in closed form, as the reference would take seconds.
        for m, n in ((256, 8), (7, 256), (256, 256)):
            left, right = StemPoly([lcoef] * m), StemPoly([rcoef] * n)
            expected = [[top * (min(k, m - 1, n - 1, m + n - 2 - k) + 1)
                         if t == r else 0 for k in range(m + n - 1)]
                        for t in range(4)]
            assert _kronecker(_ints(left), _ints(right),
                              _mul_components) == expected
            assert left.star(right).parts == tuple(map(Poly, expected))


def test_conj_values():
    assert F_PAIR.conj() == -F_PAIR
    real = StemPoly([1, 2, Fraction(1, 3)])
    assert real.conj() == real
    assert StemPoly([1, QI]).conj() == StemPoly([1, -QI])


def test_trace_and_norm_of_worked_pair():
    assert F_PAIR.trace().is_zero
    assert G_PAIR.trace().is_zero
    assert F_PAIR.norm() == QUARTIC
    assert G_PAIR.norm() == QUARTIC
    one = StemPoly.constant(1)
    assert one.trace() == Poly([2])
    assert one.norm() == Poly([1])


def test_norm_agrees_with_split_formula():
    rng = random.Random(314)
    for _ in range(40):
        coeffs = [rand_quaternion(rng) for _ in range(rng.randint(1, 6))]
        stem = StemPoly(coeffs)
        assert stem.parts == tuple(Poly([c.components()[r] for c in coeffs])
                                   for r in range(4))
        c0, c1, c2, c3 = stem.parts
        assert stem.norm() == c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3


@pytest.mark.parametrize("bits", (1, 7, 8, 15, 16, 26, 63, 64))
def test_norm_at_the_worst_case_digit_width(bits, monkeypatch):
    # Coefficients of +-(2**bits - 1), all of one sign in a part or
    # alternating, make every digit of the packed sum of squares as large
    # as its width allows, on every packing path.
    top = 2 ** bits - 1
    lengths = [(m, n) for m in range(1, 9) for n in range(1, 9)] + [(256, 256)]
    for branch, (m, n) in product(PACKING_BRANCHES, lengths):
        use_packing_branch(monkeypatch, branch)
        for signs in ((1, 1, 1, 1), (-1, 1, -1, 1), (1, -1, "alt", "alt")):
            parts = []
            for r, sign in enumerate(signs):
                length = m if r % 2 else n
                parts.append(Poly([top * (-1) ** k if sign == "alt" else top * sign
                                   for k in range(length)]))
            stem = StemPoly([Quaternion(*(p.coeff(k) for p in parts))
                             for k in range(max(m, n))])
            c0, c1, c2, c3 = stem.parts
            assert stem.norm() == c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3


# Four component polynomials of independent lengths, so a stem's parts
# rarely end at the same degree.
component_polys = st.lists(st.one_of(st.just(Fraction(0)), fractions),
                           max_size=7).map(Poly)
stems_from_parts = st.tuples(component_polys, component_polys,
                             component_polys,
                             component_polys).map(stem_from_parts)


def _expected_repr(parts):
    n = max(len(p.coeffs) for p in parts)
    quats = ", ".join("Quaternion({}, {}, {}, {})".format(
        *(p.coeff(k) for p in parts)) for k in range(n))
    return f"StemPoly([{quats}])"


@given(stems_from_parts)
def test_coeffs_and_parts_round_trip(stem):
    assert type(stem.coeffs) is tuple
    assert len(stem.coeffs) == stem.degree + 1
    assert not stem.coeffs or stem.coeffs[-1]
    again = StemPoly(stem.coeffs)
    assert again == stem and again.parts == stem.parts
    assert hash(again) == hash(stem)
    assert stem_from_parts(stem.parts) == stem
    assert all(type(x) is Fraction for p in again.parts for x in p.coeffs)
    assert repr(stem) == repr(again) == _expected_repr(stem.parts)
    assert [stem.coeff(k) for k in range(-1, stem.degree + 3)] == (
        [Quaternion()] + list(stem.coeffs) + [Quaternion()] * 2)


def _stem_text(quats):
    """An expression for the stem with these coefficients, one term per
    nonzero component."""
    terms = [f"({c})*z^{k}*{unit}" for k, q in enumerate(quats)
             for c, unit in zip(q.components(), "1ijk") if c]
    return " + ".join(terms) or "0"


@given(st.lists(mixed_quaternions, max_size=8),
       st.lists(mixed_quaternions, max_size=4),
       mixed_fractions.filter(bool))
def test_every_route_stores_one_canonical_form(quats, extra, scale):
    stem = StemPoly(quats)
    other = StemPoly(extra)
    order = max(len(quats), 1)
    routes = [
        parse_stem(_stem_text(quats)),
        (StemPoly.constant(scale) ** 2).star(stem) * (1 / scale ** 2),
        stem.star(StemPoly.constant(Quaternion(scale))).star(
            StemPoly.constant(Quaternion(1 / scale))),
        (stem + other) - other,
        -(other - (stem + other)),
        stem * scale * (1 / scale),
        series_from_stem(stem + StemPoly.monomial(order) * other,
                         order).stem,
    ]
    reference = tuple(reference_stem_views(quats).values())
    for route in [stem] + routes:
        assert route == stem and hash(route) == hash(stem)
        assert (route.nums, route.den) == (stem.nums, stem.den)
        assert route.den > 0 and gcd(route.den, *chain(*route.nums)) == 1
        assert all(not xs or xs[-1] for xs in route.nums)
        assert (route.parts, route.coeffs, repr(route), str(route)) == reference


def test_parts_of_unequal_length_and_the_zero_stem():
    c0 = Poly([1, 0, Fraction(1, 2)])
    c3 = Poly([0, 0, 0, 0, 0, -3])
    stem = stem_from_parts((c0, Poly(), Poly(), c3))
    assert stem.degree == 5
    assert stem.coeffs == (Quaternion(1), Quaternion(), Quaternion(Fraction(1, 2)),
                           Quaternion(), Quaternion(), Quaternion(0, 0, 0, -3))
    assert stem == StemPoly(stem.coeffs)
    assert stem == parse_stem("1 + (1/2)*z^2 - 3*z^5*k")
    assert repr(stem) == ("StemPoly([Quaternion(1, 0, 0, 0), Quaternion(0, 0, 0, 0), "
                          "Quaternion(1/2, 0, 0, 0), Quaternion(0, 0, 0, 0), "
                          "Quaternion(0, 0, 0, 0), Quaternion(0, 0, 0, -3)])")
    zero = stem_from_parts((Poly(),) * 4)
    assert zero == StemPoly() == StemPoly([0, Quaternion(), 0])
    assert zero.is_zero and zero.degree == -1 and zero.coeffs == ()
    assert repr(zero) == "StemPoly([])"
    assert hash(zero) == hash(StemPoly())
    assert StemPoly([1, QI, 0, 0]).parts == (Poly([1]), Poly([0, 1]), Poly(), Poly())


def test_zero_polynomials_and_stems_are_falsy_as_zero_scalars_are():
    for zero, nonzero in [(Poly(), Poly([0, 1])), (Poly([0, 0]), Poly([1])),
                          (StemPoly(), StemPoly([0, QI])),
                          (StemPoly([0, Quaternion()]), StemPoly([1])),
                          (Quaternion(), QI), (GaussRat(0), GaussRat(0, 1))]:
        assert not zero and nonzero


@pytest.mark.parametrize("value, scalar", [
    (Poly([Fraction(1, 2), -3, Fraction(2, 5)]), Fraction(2, 3)),
    (StemPoly([Fraction(1, 2), QI, Quaternion(0, 0, Fraction(2, 5), 1)]), QI),
], ids=["Poly", "StemPoly"])
def test_ring_operations_take_scalars_on_either_side(value, scalar):
    kind = type(value)
    lifted = kind.constant(scalar)
    assert 1 - value == kind.constant(1) - value == -(value - 1)
    assert scalar - value == lifted - value == -(value - scalar)
    assert scalar + value == value + scalar == lifted + value
    assert scalar * value == lifted * value
    assert Fraction(1, 3) * value == value * Fraction(1, 3) == value - (
        Fraction(2, 3) * value)
    assert hash(1 - value) == hash(-(value - 1))
    for op in (operator.add, operator.sub, operator.mul):
        for left, right in ((value, "x"), ("x", value)):
            with pytest.raises(TypeError):
                op(left, right)
    assert (value == "x") is False and value != "x"


def test_constant_stems_hash_as_the_quaternions_they_equal():
    assert StemPoly([QI]) == QI and len({StemPoly([QI]), QI}) == 1
    assert len({StemPoly([Fraction(2, 3)]), Fraction(2, 3),
                Quaternion(Fraction(2, 3))}) == 1
    assert len({StemPoly(), 0, Quaternion()}) == 1
    assert len({StemPoly([QI]), StemPoly([0, QI]), QI}) == 2


def test_invariants_and_products_build_no_quaternion(monkeypatch):
    from slicereg import CQuatF, render_stem, taylor_series
    from slicereg.series import _BUILDERS
    rotating = taylor_series("cos", 12) * QI + taylor_series("sin", 12) * QJ
    stems = [F_PAIR, G_PAIR, parse_stem("(1 + z*i + z^2*j)^3")]
    built = []
    init = Quaternion.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Quaternion, "__init__", counting_init)
    for f in stems:
        for g in stems:
            f.star(g)
        f.norm(), f.trace(), f.hat(), f.conj(), f.central_divisor()
        f.hat().remove_central_divisor()
        render_stem(f), series_from_stem(f, 2)
    rotating.star(rotating)
    rotating.eval_numeric(CQuatF(0.5))
    for kind in _BUILDERS:
        taylor_series(kind, 12)
    assert built == []


def test_norm_matches_sympy_sum_of_component_squares():
    sp = pytest.importorskip("sympy")
    z = sp.Symbol("z")
    rng = random.Random(1971)
    big = Fraction(10 ** 30 + 7, 10 ** 12 + 1)
    for max_degree in (0, 1, 2, 7, 20, 64):
        for _ in range(4):
            stem = rand_stem(rng, max_degree)
            if rng.random() < 0.5:
                stem = stem * big + StemPoly.monomial(max_degree, QJ * big)
            squares = 0
            for m in range(4):
                component = sum(sp.Rational(x.numerator, x.denominator) * z ** k
                                for k, x in enumerate(c.components()[m]
                                                      for c in stem.coeffs))
                squares += component ** 2
            want = sp.Poly(squares, z, domain=sp.QQ).all_coeffs()
            assert stem.norm() == Poly([Fraction(int(c.p), int(c.q))
                                        for c in reversed(want)])


@given(stems)
def test_norm_is_the_central_part_of_star_with_conj(stem):
    product = stem.star(stem.conj())
    assert stem.norm() == Poly([c.c0 for c in product.coeffs])
    assert all(not (c.c1 or c.c2 or c.c3) for c in product.coeffs)


def test_hat():
    assert StemPoly([1, QI]).hat() == StemPoly([0, QI])
    assert F_PAIR.hat() == F_PAIR
    mixed = StemPoly([Quaternion(1, 0, 1), Quaternion(1, 0, 1)])  # (1+z)(1+j)
    assert mixed.hat() == StemPoly([QJ, QJ])
    assert mixed.norm() == Poly([2, 4, 2])  # 2(1+z)^2, both routes checked
    quarter = mixed.trace() * mixed.trace() * Fraction(1, 4)
    assert mixed.norm() == quarter + mixed.hat().norm()


def test_is_slice_preserving():
    assert StemPoly([1, 0, 1]).is_slice_preserving()
    assert not StemPoly.constant(QI).is_slice_preserving()
    assert not StemPoly([0, Quaternion(1, 1)]).is_slice_preserving()


def test_central_divisor_values():
    stem = parse_stem("z + i*z^2*(z - 1) + j*z^3*(z - 1)^2")
    divisor = stem.central_divisor()
    assert divisor.gcd_poly == ZP ** 3 - ZP ** 2
    assert divisor.multiplicity(Fraction(0)) == 2
    assert divisor.multiplicity(Fraction(1)) == 1
    assert divisor.multiplicity(Fraction(5)) == 0

    assert F_PAIR.central_divisor() == Divisor.empty()
    g_div = G_PAIR.central_divisor()
    assert g_div.gcd_poly == ZP ** 2 + 2
    assert g_div.multiplicity(IOTA) == 0  # roots are +-sqrt(2)E, mult 1 each
    with pytest.raises(SlicePreservingError):
        StemPoly([1, 0, 1]).central_divisor()


def test_central_divisor_not_additive_over_star():
    left = parse_stem("1 + i*z")
    right = parse_stem("1 + j*(1 + z)")
    d_left = left.central_divisor()
    d_right = right.central_divisor()
    d_product = left.star(right).central_divisor()
    assert d_left.gcd_poly == ZP
    assert d_right.gcd_poly == ZP + 1
    assert d_product.is_empty
    assert d_product != d_left + d_right


def test_central_divisor_invariant_under_constant_conjugation():
    rng = random.Random(7)
    for _ in range(30):
        stem = rand_stem_nonslice(rng)
        alpha = rand_nonzero_quaternion(rng)
        assert conjugate_stem(alpha, stem).central_divisor() == stem.central_divisor()


def test_central_divisor_matches_the_gcd_of_the_parts():
    """`central_divisor` reduces the stored integer lists directly; it must
    equal the monic gcd that `poly_gcd_many` takes of the rational parts,
    on random stems and on planted ones: a pure constant times a square
    norm N(q), and q*v*q^c, whose divisor is N(q) up to a unit."""
    from slicereg import poly_gcd_many
    rng = random.Random(290)
    stems = [rand_stem_nonslice(rng, 8) for _ in range(20)]
    for degree in (1, 2, 4, 8, 20):
        q = rand_stem_nonslice(rng, degree)
        v = StemPoly([Quaternion(0, *(rand_fraction(rng) or 1
                                      for _ in range(3)))])
        stems += [StemPoly([v.coeffs[0] * c for c in q.norm().coeffs]),
                  q.star(v).star(q.conj()),
                  q.star(q).star(v) * Fraction(7, 10 ** 12)]
    for stem in stems:
        assert stem.central_divisor().gcd_poly == poly_gcd_many(stem.parts[1:])


def test_remove_central_divisor():
    lam, tilde = StemPoly([0, QI]).remove_central_divisor()
    assert lam == ZP and tilde == StemPoly.constant(QI)

    lam, tilde = F_PAIR.remove_central_divisor()
    assert lam == Poly([1]) and tilde == F_PAIR

    stem = parse_stem("z*(z - 1)*(i + z*j)")
    lam, tilde = stem.remove_central_divisor()
    assert lam == ZP ** 2 - ZP
    assert tilde == parse_stem("i + z*j")
    assert tilde.central_divisor().is_empty
    assert stem.norm() == lam * lam * tilde.norm()

    with pytest.raises(ZeroFunctionError):
        StemPoly().remove_central_divisor()
    with pytest.raises(SlicePreservingError):
        StemPoly([1, 2]).remove_central_divisor()
    with pytest.raises(ValueError):
        StemPoly([Quaternion(1, 1)]).remove_central_divisor()


def _trace_free_stems_with_a_divisor(rng):
    """Trace-free stems (0, c1 d, c2 d, c3 d) over seeded rational
    divisors d, some with repeated roots, and components that may be zero,
    carry an integer content or lead with a negative entry."""
    stems = []
    for _ in range(60):
        d = Poly([1])
        for _ in range(rng.randint(0, 3)):
            factor = Poly([rand_fraction(rng), rng.choice((1, -2, 3))])
            d = d * factor ** rng.randint(1, 3)
        parts = [Poly()]
        for _ in range(3):
            c = rng.choice((Poly(), Poly([rng.choice((-6, 4, 10))]),
                            Poly([rand_fraction(rng) for _ in range(
                                rng.randint(1, 4))])))
            parts.append(c * d * rng.choice((1, -1, Fraction(12, 7), 30)))
        stem = stem_from_parts(parts)
        if not stem.is_slice_preserving():
            stems.append(stem)
    return stems


def test_remove_central_divisor_matches_the_poly_division_reference(
        monkeypatch):
    """The route on the stored lists against the `Poly` quotients, which
    it must not call."""
    stems = _trace_free_stems_with_a_divisor(random.Random(3301))
    stems += [parse_stem("z*(z - 1)*(i + z*j)"), StemPoly([0, QI]), F_PAIR,
              parse_stem("(z^2 + 1)^2*(3*z - 1)^3*(2*i - 3*j + 5*k)"),
              parse_stem("(-6*z^2 + 4)*i + (-12*z^2 + 8)*k")]
    assert any(s.central_divisor().degree >= 2 for s in stems)
    references = [reference_remove_central_divisor(stem) for stem in stems]

    def refused(*args):
        raise AssertionError("Poly quotient built")

    monkeypatch.setattr(Poly, "__divmod__", refused)
    with pytest.raises(AssertionError, match="built"):
        divmod(Poly([1, 1]), Poly([1]))
    for stem, (ref_lam, ref_tilde) in zip(stems, references):
        lam, tilde = stem.remove_central_divisor()
        assert (lam.nums, lam.den) == (ref_lam.nums, ref_lam.den)
        assert (tilde.nums, tilde.den) == (ref_tilde.nums, ref_tilde.den)
        assert lam.nums[-1] == lam.den  # monic
        assert tilde.central_divisor().is_empty
        assert stem.norm() == lam * lam * tilde.norm()
    for bad, error in ((StemPoly(), ZeroFunctionError),
                       (StemPoly([1, 2]), SlicePreservingError),
                       (StemPoly([Quaternion(1, 1)]), ValueError)):
        for route in (StemPoly.remove_central_divisor,
                      reference_remove_central_divisor):
            with pytest.raises(ValueError) as caught:
                route(bad)
            assert caught.type is error


def test_eval_stem_values():
    assert F_PAIR.eval_stem(Fraction(0)) == CQuat(0, 1)
    value = F_PAIR.eval_stem(IOTA)
    assert value == CQuat(GaussRat(0), GaussRat(1), IOTA, GaussRat(Fraction(-1, 2)))


def test_eval_stem_reality_condition():
    rng = random.Random(99)
    for _ in range(30):
        stem = rand_stem(rng)
        x = rand_fraction(rng)
        assert stem.eval_stem(x).is_real_quaternion
        z = GaussRat(rand_fraction(rng), rand_fraction(rng))
        assert (stem.eval_stem(z.conjugate())
                == complex_conjugate(stem.eval_stem(z)))


def test_eval_slice_values():
    assert StemPoly([0, 0, 1]).eval_slice(QJ) == Quaternion(-1)
    assert StemPoly([0, QI]).eval_slice(QJ) == -QK  # j * i, right coefficients
    assert StemPoly([1, 1]).eval_slice(Quaternion(3)) == Quaternion(4)


def test_eval_slice_representation_consistency():
    rng = random.Random(432)
    for _ in range(60):
        stem = rand_stem(rng)
        q = rand_quaternion(rng)
        assert stem.eval_slice(q) == eval_slice_split(stem, q)


@given(mixed_stems, mixed_quaternions)
def test_eval_slice_matches_the_split_route(stem, q):
    """The slice Horner (the point on the left of the stored integer
    lists) against the center + imaginary-direction reference."""
    assert stem.eval_slice(q) == eval_slice_split(stem, q)


def _sympy_rational(sp, x: Fraction):
    return sp.Rational(x.numerator, x.denominator)


@settings(deadline=None, max_examples=50)
@given(mixed_stems, mixed_fractions, mixed_fractions)
def test_eval_stem_and_poly_call_match_sympy(stem, re, im):
    """The scalar Horner of `eval_stem` and `Poly.__call__` at a Gaussian
    point against sympy's expansion of each component's power sum."""
    sp = pytest.importorskip("sympy")
    z0 = GaussRat(re, im)
    point = _sympy_rational(sp, re) + sp.I * _sympy_rational(sp, im)
    value = stem.eval_stem(z0)
    for part, got in zip(stem.parts, value.components()):
        want = sp.expand(sum((_sympy_rational(sp, c) * point ** k
                              for k, c in enumerate(part.coeffs)),
                             sp.Integer(0)))
        real, imag = (Fraction(int(x.p), int(x.q)) for x in want.as_real_imag())
        assert (got.re, got.im) == (real, imag)
        assert part(z0) == got
    assert all(type(part(re)) is Fraction for part in stem.parts)
    assert [part(re) for part in stem.parts] == [
        c.re for c in stem.eval_stem(re).components()]


def test_pointwise_norm_compatibility():
    rng = random.Random(15)
    for _ in range(30):
        stem = rand_stem(rng)
        x = rand_fraction(rng)
        # At real points conjugation is pointwise, so norms match values.
        assert stem.norm()(x) == stem.eval_slice(Quaternion(x)).norm()
        z = GaussRat(rand_fraction(rng), rand_fraction(rng))
        assert GaussRat(0) + stem.norm()(z) == stem.eval_stem(z).norm()


def test_star_conj_antihomomorphism_random():
    rng = random.Random(63)
    for _ in range(40):
        f = rand_stem(rng)
        g = rand_stem(rng)
        assert f.star(g).conj() == g.conj().star(f.conj())
        assert f.conj().conj() == f
        assert f.star(g).norm() == f.norm() * g.norm()


def test_r3_stem_componentwise():
    pair = R3StemPoly(StemPoly.constant(QI), G_PAIR)
    d1, d2 = pair.central_divisor()
    assert d1 == Divisor.empty()
    assert d2.gcd_poly == ZP ** 2 + 2

    norms = R3StemPoly(StemPoly.constant(1), StemPoly([0, 1])).norm()
    assert norms == (Poly([1]), Poly([0, 0, 1]))

    sq = R3StemPoly(StemPoly([0, 0, 1]), StemPoly([0, 0, 1]))
    value = sq.eval_slice(R3Elem(QJ, QK))
    assert value == R3Elem(Quaternion(-1), Quaternion(-1))

    both_sp = R3StemPoly(StemPoly([1, 2]), G_PAIR)
    assert both_sp.central_divisor()[0] is SLICE_PRESERVING

    swapped = pair.swap()
    assert swapped.first == G_PAIR and swapped.second == StemPoly.constant(QI)

    v1, v2 = pair.eval_stem(IOTA)
    assert v1 == CQuat(0, 1)
    assert v2 == G_PAIR.eval_stem(IOTA)


def test_r3_eval_cone_gate():
    sq = R3StemPoly(StemPoly([0, 0, 1]), StemPoly([0, 0, 1]))
    point = R3Elem(QI, QJ)  # shared trace 0 and norm 1: inside the cone
    assert sq.eval_slice(point, require_cone=True) == R3Elem(Quaternion(-1),
                                                             Quaternion(-1))
    outside = R3Elem(1 + QI, 1 + 2 * QI)
    with pytest.raises(ValueError):
        sq.eval_slice(outside, require_cone=True)
    assert sq.eval_slice(outside) == R3Elem((1 + QI) ** 2, (1 + 2 * QI) ** 2)

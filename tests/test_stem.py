import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicereg import (SLICE_PRESERVING, CQuat, Divisor, GaussRat, Poly,
                      Quaternion, R3Elem, R3StemPoly, SlicePreservingError,
                      StemPoly, ZeroFunctionError, parse_stem)
from slicereg.algebra import QI, QJ, QK

from support import (conjugate_stem, convolve_stems, rand_fraction,
                     rand_nonzero_quaternion, rand_quaternion, rand_stem,
                     rand_stem_nonslice)

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
mixed_stems = st.builds(StemPoly, st.lists(
    st.builds(Quaternion, mixed_fractions, mixed_fractions, mixed_fractions,
              mixed_fractions), max_size=8))

F_PAIR = parse_stem("i + z*j + (1/2)*z^2*k")
G_PAIR = parse_stem("(1 + (1/2)*z^2)*i")
QUARTIC = Poly([1, 0, 1, 0, Fraction(1, 4)])
ZP = Poly.monomial(1)


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
        stem = rand_stem(rng)
        parts = stem.split()
        split_route = (parts.center * parts.center + parts.w1 * parts.w1
                       + parts.w2 * parts.w2 + parts.w3 * parts.w3)
        assert stem.norm() == split_route


def test_norm_matches_sympy_sum_of_component_squares():
    sp = pytest.importorskip("sympy")
    z = sp.Symbol("z")
    rng = random.Random(1971)
    for max_degree in (0, 1, 2, 7, 20):
        for _ in range(4):
            stem = rand_stem(rng, max_degree)
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
                == stem.eval_stem(z).complex_conjugate())


def test_eval_slice_values():
    assert StemPoly([0, 0, 1]).eval_slice(QJ) == Quaternion(-1)
    assert StemPoly([0, QI]).eval_slice(QJ) == -QK  # j * i, right coefficients
    assert StemPoly([1, 1]).eval_slice(Quaternion(3)) == Quaternion(4)


def test_eval_slice_representation_consistency():
    rng = random.Random(432)
    for _ in range(60):
        stem = rand_stem(rng)
        q = rand_quaternion(rng)
        assert stem.eval_slice(q) == stem.eval_slice_split(q)


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

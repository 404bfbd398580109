import operator
import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicereg import (BothZeroError, Divisor, GaussRat, Matrix, Poly,
                      PolyDivisionByZeroError, StemPoly, ZeroPolynomialError,
                      equivalent, find_intertwiner, parse_stem, poly_gcd,
                      poly_gcd_many, vanishing_order)
import slicereg.poly as poly
from slicereg.poly import (_digits, _divides, _gcd_ints, _integer_echelon,
                           _integer_nullspace, _over_one_denominator, _pack,
                           _unpack)

from support import (PACKING_BRANCHES, leading, rand_fraction, rand_poly,
                     rand_pure_imaginary_quaternion, rand_stem_nonslice,
                     use_packing_branch)

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)
polys = st.builds(Poly, st.lists(fractions, max_size=9))

Z = Poly.monomial(1)
IOTA = GaussRat(0, 1)


def test_product_of_conjugate_linear_factors():
    assert (Z + 1) * (Z - 1) == Z ** 2 - 1


def test_divmod_values():
    q, r = divmod(Z ** 3, Z ** 2)
    assert q == Z and r.is_zero
    q, r = divmod(Z ** 2 + 1, Z + 1)
    assert q == Z - 1 and r == Poly.constant(Fraction(2))
    with pytest.raises(PolyDivisionByZeroError):
        divmod(Z, Poly())


@given(polys, polys)
def test_divmod_contract(a, b):
    if b.is_zero:
        return
    q, r = divmod(a, b)
    assert a == q * b + r
    assert r.degree < b.degree


def test_gcd_values():
    a = Z ** 2 * (Z - 1)
    b = Z ** 3 * (Z - 1) ** 2
    assert poly_gcd(a, b) == Z ** 3 - Z ** 2
    assert poly_gcd(Z, Z + 1) == Poly.constant(Fraction(1))
    assert poly_gcd(Poly(), 2 * Z + 2) == Z + 1
    with pytest.raises(BothZeroError):
        poly_gcd(Poly(), Poly())
    with pytest.raises(BothZeroError):
        poly_gcd_many([Poly(), Poly()])


def test_gcd_properties_on_random_pairs():
    rng = random.Random(411)
    for _ in range(60):
        a = rand_poly(rng, 8)
        b = rand_poly(rng, 8)
        if a.is_zero and b.is_zero:
            continue
        g = poly_gcd(a, b)
        assert g == poly_gcd(b, a)
        assert g.is_zero or leading(g) == 1
        assert (a % g).is_zero if not a.is_zero else True
        assert (b % g).is_zero if not b.is_zero else True
        if not b.is_zero:
            assert g == poly_gcd(b, a % b)


def test_eval_values():
    p = Z ** 2 + 1
    assert p(IOTA) == GaussRat(0)
    assert p(Fraction(2)) == 5
    assert (Z ** 3 - Z ** 2)(Fraction(1)) == 0


@given(polys, polys, fractions)
def test_eval_is_a_ring_homomorphism(p, q, z0):
    assert (p * q)(z0) == p(z0) * q(z0)
    assert (p + q)(z0) == p(z0) + q(z0)


def test_vanishing_order_values():
    p = Z ** 3 - Z ** 2
    assert vanishing_order(p, Fraction(0)) == 2
    assert vanishing_order(p, Fraction(1)) == 1
    assert vanishing_order(p, Fraction(5)) == 0
    with pytest.raises(ZeroPolynomialError):
        vanishing_order(Poly(), Fraction(0))


def test_vanishing_order_at_complex_points():
    p = Z ** 2 + 2  # vanishes at +- sqrt(2) E, not at E
    assert vanishing_order(p, IOTA) == 0
    assert vanishing_order((Z ** 2 + 1) ** 3, IOTA) == 3


def test_evaluation_refuses_a_float_point():
    # The float 0.1 is 3602879701896397 / 2**55, where 10z - 1 is
    # 1 / 2**54, not 0; an exact answer needs an exact point.
    p = Poly([-1, 10])
    for evaluate in (p, Divisor(p).multiplicity,
                     lambda z0: vanishing_order(p, z0)):
        with pytest.raises(TypeError):
            evaluate(0.1)
    with pytest.raises(TypeError):
        Poly([1, 2])(0.5)
    assert vanishing_order(p, Fraction(1, 10)) == 1


def test_vanishing_order_additive_over_products():
    rng = random.Random(902)
    for _ in range(40):
        p = rand_poly(rng, 5)
        q = rand_poly(rng, 5)
        if p.is_zero or q.is_zero:
            continue
        z0 = rand_fraction(rng, 3, 3)
        assert (vanishing_order(p * q, z0)
                == vanishing_order(p, z0) + vanishing_order(q, z0))


def test_nullspace_values():
    eye = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert eye.nullspace() == []
    zero = Matrix([[0, 0], [0, 0]])
    assert len(zero.nullspace()) == 2
    m = Matrix([[1, 1], [2, 2]])
    basis = m.nullspace()
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * Fraction(-1) == v[1]


def _rank(m: Matrix) -> int:
    return len(_integer_echelon(_over_one_denominator(m.entries)[0],
                                m.cols)[1])


def test_nullspace_contract_on_random_matrices():
    rng = random.Random(5280)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = Matrix([[rand_fraction(rng, 4, 4) for _ in range(cols)]
                    for _ in range(rows)])
        basis = m.nullspace()
        assert _rank(m) + len(basis) == cols
        for v in basis:
            assert all(sum(e * x for e, x in zip(row, v)) == 0
                       for row in m.entries)


# -- the integer kernels against sympy and against the field routes ------------

P61 = (1 << 61) - 1


def _to_sympy(sp, p: Poly):
    """Ascending rational coefficients -> sympy Poly over QQ."""
    coeffs = [sp.Rational(c.numerator, c.denominator) for c in p.coeffs]
    return sp.Poly(list(reversed(coeffs)) or [0], sp.Symbol("z"),
                   domain=sp.QQ)


def _from_sympy(q) -> Poly:
    return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(q.all_coeffs())])


def _diff_poly(rng, degree: int, density: float = 1.0) -> Poly:
    """Degree exactly `degree`; zero, negative, integer and rational
    coefficients, and with density < 1 mostly zero (sparse)."""
    coeffs = [rand_fraction(rng, 99, 12) if rng.random() < density else Fraction(0)
              for _ in range(degree)]
    lead = Fraction(0)
    while not lead:
        lead = rand_fraction(rng, 99, 12)
    return Poly(coeffs + [lead])


def _schoolbook(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for m, x in enumerate(a.coeffs):
        for n, y in enumerate(b.coeffs):
            out[m + n] += x * y
    return Poly(out)


def _euclid(a: Poly, b: Poly) -> Poly:
    """Monic Euclid over the coefficient field, with no certificate."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def test_products_match_sympy():
    sp = pytest.importorskip("sympy")
    rng = random.Random(2009)
    for _ in range(80):
        a = _diff_poly(rng, rng.choice((0, 1, 2, 5, 17, 40)), rng.choice((1, 0.3)))
        b = _diff_poly(rng, rng.choice((0, 1, 3, 8, 33)), rng.choice((1, 0.2)))
        a = -a if rng.random() < 0.3 else a
        want = _from_sympy(_to_sympy(sp, a) * _to_sympy(sp, b))
        assert a * b == want
        assert b * a == want
    assert Poly([Fraction(5)]) * Poly([Fraction(-3, 7)]) == Poly([Fraction(-15, 7)])
    assert Poly([0, 1]) * Poly([0, 0, 2]) == Poly([0, 0, 0, 2])
    assert (Z - 1) * Poly() == Poly() and Poly() * Z == Poly()


def test_products_of_large_coefficients_match_the_schoolbook():
    rng = random.Random(1982)
    for bits in (1, 60, 61, 64, 200):
        a = Poly([Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** bits))
                  for _ in range(rng.randint(1, 12))] + [Fraction(-2 ** bits)])
        b = Poly([Fraction(rng.randint(-2 ** bits, 2 ** bits))
                  for _ in range(rng.randint(0, 12))] + [Fraction(2 ** bits - 1)])
        assert a * b == _schoolbook(a, b)
        assert a * a == _schoolbook(a, a)


@pytest.mark.parametrize("bits", [1, 7, 8, 15, 16, 26, 63, 64])
def test_product_digit_width_holds_at_the_worst_case(bits, monkeypatch):
    """Every entry +-(2**bits - 1), signed so that all products of a
    digit add: the largest digits a packed `Poly` product can have,
    against the schoolbook product, on every packing path."""
    c = 2 ** bits - 1
    lengths = (1, 2, 3, 4, 5, 6, 7, 8, 256)
    cases = []
    for sign in (1, -1):               # the most negative digits as well
        for m in lengths:
            for n in lengths:
                a, b = [sign * c] * m, [c] * n
                out = [0] * (m + n - 1)
                for i, x in enumerate(a):
                    for k, y in enumerate(b):
                        out[i + k] += x * y
                cases.append((a, b, out))
    for branch in PACKING_BRANCHES:
        use_packing_branch(monkeypatch, branch)
        for a, b, out in cases:
            assert poly._kronecker([a], [b]) == [out]
            assert Poly(a) * Poly(b) == Poly(out)


def test_products_of_int_and_fraction_coefficients_are_fractions():
    product = Poly([1, 2]) * Poly([Fraction(1, 2), 3])
    assert product == Poly([Fraction(1, 2), 4, 6])
    assert all(type(c) is Fraction for c in product.coeffs)


def test_gcds_of_int_coefficients_are_fractions():
    pair = poly_gcd(Poly([-2, 2]), Poly([-4, 4]))
    family = poly_gcd_many([Poly([3, 6]), Poly([0, 1, 2]), Poly([5, 10])])
    assert pair == Z - 1 and family == Z + Fraction(1, 2)
    assert all(type(c) is Fraction for c in pair.coeffs + family.coeffs)


# Division of int coefficients is exact: it gives Fractions, never floats
# (which compare equal to the Fractions they approximate, hence the types).

def _all_fractions(*polys) -> bool:
    return all(type(c) is Fraction for p in polys for c in p.coeffs)


def test_monic_of_int_coefficients_is_exact():
    p = Poly([1, 2]).monic()
    assert p == Poly([Fraction(1, 2), 1]) and _all_fractions(p)


def test_divmod_of_int_coefficients_is_exact():
    q, r = divmod(Poly([1, 0, 1]), Poly([1, 2]))
    assert q == Poly([Fraction(-1, 4), Fraction(1, 2)])
    assert r == Poly([Fraction(5, 4)])
    assert _all_fractions(q, r)


def test_divisor_of_int_coefficients_is_exact():
    from slicereg import Divisor
    p = Divisor(Poly([2, 4])).gcd_poly
    assert p == Poly([Fraction(1, 2), 1]) and _all_fractions(p)


def test_float_and_gaussian_coefficients_are_refused():
    # A float coefficient made inexact products (0.5 * 0.5 gave the float
    # 0.25); a Gaussian one has no integer form over one denominator.
    for bad in (0.5, complex(1, 0), GaussRat(1), IOTA):
        with pytest.raises(TypeError):
            Poly([1, bad])
        with pytest.raises(TypeError):
            Poly.constant(bad)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(Z + 1, bad)
            with pytest.raises(TypeError):
                op(bad, Z + 1)
    assert Poly([1]) != GaussRat(1) and Poly([1]) == 1
    # Evaluation at a Gaussian point stays.
    assert (Z ** 2 + 1)(IOTA) == 0 and (Z ** 2 + 1)(2 * IOTA) == GaussRat(-3)


def test_constants_hash_as_the_scalars_they_equal():
    assert len({Poly([1]), 1}) == 1
    assert len({Poly(), 0, Fraction(0)}) == 1
    assert len({Poly([Fraction(-2, 3)]), Fraction(-2, 3)}) == 1
    assert len({Poly([Fraction(2, 4)]), Poly([Fraction(1, 2)]),
                Fraction(1, 2)}) == 1
    assert {Z + 1: "x"}[Poly([1, 1])] == "x"


def test_gcd_matches_sympy_on_coprime_and_planted_inputs():
    sp = pytest.importorskip("sympy")
    rng = random.Random(1971)
    for _ in range(40):
        a = _diff_poly(rng, rng.randint(0, 12), rng.choice((1, 0.4)))
        b = _diff_poly(rng, rng.randint(0, 12), rng.choice((1, 0.4)))
        g = _diff_poly(rng, rng.randint(1, 4))
        for x, y in ((a, b), (a * g, b * g), (a * g * g, b * g)):
            want = _from_sympy(sp.gcd(_to_sympy(sp, x), _to_sympy(sp, y)).monic())
            assert poly_gcd(x, y) == want
            assert poly_gcd(y, x) == want


def test_gcd_many_matches_sympy_on_coprime_and_planted_inputs():
    sp = pytest.importorskip("sympy")
    rng = random.Random(68)
    for _ in range(30):
        family = [_diff_poly(rng, rng.randint(0, 10), rng.choice((1, 0.5)))
                  for _ in range(3)]
        planted = _diff_poly(rng, rng.randint(1, 3))
        for polys in (family, [p * planted for p in family],
                      [family[0] * planted, Poly(), family[1] * planted]):
            want = _from_sympy(reduce(sp.Poly.gcd, [_to_sympy(sp, p) for p in polys
                                                     if not p.is_zero]).monic())
            assert poly_gcd_many(polys) == want


# Roots and leading coefficients at the prime P61, which defeat a
# coprimality test modulo P61, kept as gcd regressions against Euclid.

def test_certificate_fallback_when_coprime_over_q_but_not_mod_p():
    a, b = Z, Z + P61
    assert poly_gcd(a, b) == _euclid(a, b) == Poly([1])
    a, b = (Z - 1) * (Z + 3), (Z - 1 + P61) * (Z + 3) * (Z + 5)
    assert poly_gcd(a, b) == _euclid(a, b) == Z + 3
    # Rational inputs scale to the same integer pair.
    a, b = Z * Fraction(1, 3), (Z + P61) * Fraction(2, 7)
    assert poly_gcd(a, b) == _euclid(a, b) == Poly([1])


def test_certificate_fallback_when_p_divides_a_leading_coefficient():
    for a, b in ((P61 * Z ** 2 + 1, Z ** 2 + 2),
                 (Z + 1, Fraction(P61, 5) * Z ** 3 + Z - 7),
                 (P61 * (Z - 2) * (Z + 1), (Z - 2) * (Z + 4))):
        assert poly_gcd(a, b) == _euclid(a, b)
        assert poly_gcd(b, a) == _euclid(a, b)
    assert poly_gcd(P61 * (Z - 2) * (Z + 1), (Z - 2) * (Z + 4)) == Z - 2


def _planted_family(rng, degree: int, bits: int, count: int = 3):
    """`count` integer polynomials of degree `degree` with coefficients of
    up to `bits` bits, plus a planted factor of degree 1-8 (repeated roots
    included) to multiply them by."""
    family = [Poly([rng.randint(-2 ** bits, 2 ** bits) for _ in range(degree)]
                   + [rng.randint(1, 2 ** bits)]) for _ in range(count)]
    root = Poly([rng.randint(-9, 9), rng.randint(1, 4)])
    planted = rng.choice((root, root ** 2, root ** 3 * (Z ** 2 + 1),
                          _diff_poly(rng, rng.randint(1, 8))))
    return family, planted


@pytest.mark.parametrize("degree,bits", [(1, 4), (3, 4), (8, 7), (12, 100),
                                         (20, 8), (64, 8), (160, 8)])
def test_gcd_matches_sympy_on_planted_repeated_and_large_inputs(degree, bits):
    sp = pytest.importorskip("sympy")
    rng = random.Random(degree * 1000 + bits)
    for _ in range(6 if degree < 64 else 2):
        family, planted = _planted_family(rng, degree, bits)
        for polys in (family, [p * planted for p in family],
                      [family[0] * planted ** 2, family[1] * planted,
                       family[2] * planted * Fraction(1, 10 ** 30)]):
            want = _from_sympy(reduce(sp.Poly.gcd, [_to_sympy(sp, p)
                                                    for p in polys]).monic())
            assert poly_gcd_many(polys) == want
            assert poly_gcd(polys[0], polys[1]) == _from_sympy(
                sp.gcd(_to_sympy(sp, polys[0]), _to_sympy(sp, polys[1])).monic())


def test_gcd_of_coefficients_near_ten_to_the_thirty_matches_sympy():
    sp = pytest.importorskip("sympy")
    rng = random.Random(1030)
    big = 10 ** 30
    for _ in range(10):
        g = Poly([rng.randint(-big, big), rng.randint(1, big)])
        a = Poly([Fraction(rng.randint(-big, big), rng.randint(1, big))
                  for _ in range(rng.randint(1, 6))] + [1])
        b = Poly([rng.randint(-big, big) for _ in range(rng.randint(1, 6))]
                 + [big])
        for x, y in ((a, b), (a * g, b * g), (a * g * g, b * g * g)):
            want = _from_sympy(sp.gcd(_to_sympy(sp, x), _to_sympy(sp, y)).monic())
            assert poly_gcd(x, y) == want


def test_gcd_widens_past_six_refused_candidates(monkeypatch):
    # With the first seven checks refused (the divisibility shortcut and
    # six candidates), a pair with a nonconstant gcd is read at a seventh
    # point: the point widens for as long as candidates fail.
    divides, widths = poly._divides, []

    def refusing_divides(*args):
        widths.append(args[-1])
        return len(widths) > 7 and divides(*args)

    monkeypatch.setattr(poly, "_divides", refusing_divides)
    rng = random.Random(0)
    for degree in (1, 4, 9):
        family, planted = _planted_family(rng, degree, 6, count=2)
        for a, b in (family, [p * planted for p in family],
                     (family[0] * planted ** 2, family[1] * planted)):
            widths.clear()
            want = _euclid(a, b)
            assert poly_gcd(a, b) == want
            if want.degree > 0:
                assert len(set(widths)) == 7
    widths.clear()
    assert poly_gcd(Z + P61, Z) == _euclid(Z + P61, Z) == Poly([1])


def test_gcd_widens_the_point_after_a_failed_candidate(monkeypatch):
    # (2z - 1) times two coprime cubics: the candidate read back at
    # xi = 2**8 fails its check, the one at xi = 2**16 passes.  The inputs
    # are packed at the first point and once more at the widened one.
    a, b = Poly([-2, 6, -2, -5, 2]), Poly([-2, 3, 0, 2, 4])
    pack, widths = poly._pack, []

    def recording_pack(xs, width):
        if xs in (a.nums, b.nums):
            widths.append(width)
        return pack(xs, width)

    monkeypatch.setattr(poly, "_pack", recording_pack)
    assert poly_gcd(a, b) == Z - Fraction(1, 2)
    assert widths == [1, 1, 2, 2]


@pytest.fixture
def kronecker_calls(monkeypatch):
    """The number of integer products `_kronecker` computes."""
    import slicereg.poly as poly
    calls = []
    kronecker = poly._kronecker

    def counting_kronecker(a, b):
        calls.append(1)
        return kronecker(a, b)

    monkeypatch.setattr(poly, "_kronecker", counting_kronecker)
    return calls


def test_division_at_the_point_without_divisibility_takes_the_product(
        kronecker_calls):
    # g = z - 2 and x = 60z^2 + 7z at xi = 2**8: g(xi) = 254 divides
    # x(xi) = 3933952, but the quotient's digits [-128, 61] are too wide for
    # the bound, and the product (61z - 128)(z - 2) is not x.
    assert divmod(3933952, 254) == (15488, 0)
    assert _digits(15488, 1) == [-128, 61]
    assert not _divides([-2, 1], 254, [0, 7, 60], 3933952, 1)
    assert len(kronecker_calls) == 1
    # The same pair through the gcd: the candidate z - 2 read back at
    # xi = 2**8 divides the values only, so the gcd is 1.
    assert poly_gcd(Z - 2, 60 * Z ** 2 + 7 * Z) == Poly([1])
    assert poly_gcd(60 * Z ** 2 + 7 * Z, Z - 2) == Poly([1])
    # A narrow quotient is proven by the bound, with no product.
    kronecker_calls.clear()
    assert _divides([-2, 1], 254, [6, -5, 1], 6 - 5 * 256 + 256 ** 2, 1)
    assert not kronecker_calls
    # An x with an entry of xi/2 or more is not read off its digits: the
    # quotient 1 is narrow, but the product decides that z + 256 is not
    # 2z, though both have the value 512 at xi.
    assert not _divides([0, 2], 512, [256, 1], 512, 1)
    assert len(kronecker_calls) == 1


def test_division_bound_is_strict_at_the_digit_width(kronecker_calls):
    """g = 1 + z and x = 200 - 57z at xi = 2**8: g(xi) = 257 divides
    x(xi) = -14392, with the one-digit quotient -56.  The bound adds
    6 + 1 + 1 = 8 bits for q*g and x has 8 bits, exactly 8 * width: there
    balanced digits are not unique (200 > xi/2), so the bound must not
    prove the quotient, and the product shows -56 - 56z is not x."""
    assert divmod(200 - 57 * 256, 257) == (-56, 0)
    assert _digits(-56, 1) == [-56]
    assert not _divides([1, 1], 257, [200, -57], 200 - 57 * 256, 1)
    assert len(kronecker_calls) == 1


def test_decide_cdiv_plants_take_no_product(kronecker_calls):
    """The planted divisors of the benchmark's cdiv decisions (q*v*q^c
    against N(q)*v, one round's degrees) are certified by the bound or
    found by the divisibility shortcut: no `_kronecker` product runs."""
    rng = random.Random(20)
    plants = []
    for degree in (4, 8, 8, 16, 32):
        while True:
            q = rand_stem_nonslice(rng, degree // 2)
            if q.degree == degree // 2:
                break
        v = StemPoly([rand_pure_imaginary_quaternion(rng)])
        plants.append((q.star(v).star(q.conj()),
                       StemPoly([v.coeffs[0] * c for c in q.norm().coeffs])))
    for f, h in plants:
        assert equivalent(f, h).reason == "cdiv"
        assert equivalent(h, f).reason == "cdiv"
        assert h.central_divisor().degree == f.degree
    assert not kronecker_calls


@pytest.fixture
def heu_calls(monkeypatch):
    """The number of GCDHEU runs `_gcd_ints` starts."""
    import slicereg.poly as poly
    calls = []
    heu_gcd = poly._heu_gcd

    def counting_heu_gcd(*args):
        calls.append(1)
        return heu_gcd(*args)

    monkeypatch.setattr(poly, "_heu_gcd", counting_heu_gcd)
    return calls


def test_a_gcd_value_below_half_the_point_is_the_constant_one(
        heu_calls, monkeypatch):
    # At xi = 2**8 the lists are 258 and 260, which share the factor 2.
    # It is below xi/2, so GCDHEU returns 1 without reading digits.
    digit_calls = []
    digits = poly._digits
    monkeypatch.setattr(poly, "_digits",
                        lambda *args: digit_calls.append(1) or digits(*args))
    assert _pack([2, 1], 1) == 258 and _pack([4, 1], 1) == 260
    assert _gcd_ints([[2, 1], [4, 1]]) == [1]
    assert len(heu_calls) == 1 and not digit_calls


class _Unread(list):
    """A list that fails the test when its entries are read."""

    def __iter__(self):
        raise AssertionError("a list after a constant gcd was read")


def test_a_constant_gcd_ends_the_family(heu_calls):
    """Two coprime lists first: one GCDHEU run gives 1, and no later list,
    a multiple of either, a constant or a zero list, starts another or is
    read at all."""
    rng = random.Random(5)
    a, b = Z ** 2 + 1, 3 * Z - 2
    for third in (a, b * a, Poly([7]), Poly(), Z ** 6 - 1,
                  _diff_poly(rng, 9) * b, _diff_poly(rng, 12)):
        for family in ((a, b, third), (b, a, third, a * third)):
            heu_calls.clear()
            assert _gcd_ints([p.nums for p in family]) == [1]
            assert len(heu_calls) == 1
            assert poly_gcd_many(family) == Poly([1])
    lists = [a.nums, b.nums, _Unread([1, 2, 3])]
    assert _gcd_ints(lists, [_pack(x, 1) for x in lists[:2]] + [0], 1) == [1]


def test_a_constant_list_ends_the_family_before_it_is_packed(
        heu_calls, monkeypatch):
    """A nonzero constant list has primitive part +-1, so the gcd is 1 at
    once: nothing is packed before a list of positive degree comes up, no
    GCDHEU runs and the lists after the constant are not read."""
    packs = []
    pack = poly._pack
    monkeypatch.setattr(poly, "_pack",
                        lambda *args: packs.append(1) or pack(*args))
    assert _gcd_ints([[], [3], _Unread([1, 2, 3])]) == [1]
    assert _gcd_ints([[-7], [2, 4]]) == [1]
    assert not packs
    lists = [[2, 4], [], [6], _Unread([1, 2, 3])]
    assert _gcd_ints(lists, [_pack(x, 1) for x in lists[:3]] + [0], 1) == [1]
    assert _gcd_ints([[2, 4], [6]]) == [1]
    assert not heu_calls
    # [2, 4] has positive degree: both lists are packed when it comes up.
    assert len(packs) == 2


def _packed_value(xs, width):
    """sum x_k * 2**(8*width*k), the value `_pack` must give."""
    return sum(x << (8 * width * k) for k, x in enumerate(xs))


@pytest.mark.parametrize("branch", PACKING_BRANCHES)
@pytest.mark.parametrize("width", [1, 2, 3, 4, 8, 9])
def test_pack_and_unpack_follow_the_digit_formula(branch, width,
                                                  monkeypatch):
    """On each path: the value of the digits and back, at the extreme
    digits and at lengths around the crossover; an out-of-range digit or
    a value that needs more digits than asked for raises OverflowError.
    On the `array` path, widths 1, 2, 4 and 8 pack through C integer types
    of their size (which refuse 2**63 and -2**63 - 1 at width 8), and
    widths 3 and 9 copy bytes."""
    crossover = poly._SHIFT_BELOW
    use_packing_branch(monkeypatch, branch)
    half = 1 << (8 * width - 1)
    edges = (-half, half - 1, -half + 1, half - 2, -1, 0, 1)
    rng = random.Random(width)
    cases = [[], [-half], [half - 1], [0], list(edges)]
    for n in (2, crossover - 1, crossover, crossover + 1, 3 * crossover):
        cases.append([rng.choice(edges) if rng.random() < 0.4
                      else rng.randrange(-half, half) for _ in range(n)])
        cases.append([half - 1] * n)
        cases.append([-half] * n)
    for xs in cases:
        value = _packed_value(xs, width)
        assert _pack(xs, width) == value
        assert _unpack(value, len(xs), width) == xs
        for bad in (half, -half - 1, 5 * half):
            for k in {0, len(xs) // 2, len(xs)}:
                with pytest.raises(OverflowError):
                    _pack(xs[:k] + [bad] + xs[k:], width)
        # A digit beyond the n asked for, or a top digit pushed past the
        # range.
        n, base = len(xs), 1 << (8 * width)
        wide = [value + base ** n, value - base ** n]
        if xs:
            wide.append(value + (half if xs[-1] >= 0 else -half)
                        * base ** (n - 1))
        for extra in wide:
            with pytest.raises(OverflowError):
                _unpack(extra, n, width)


def test_divisibility_shortcut_matches_sympy(heu_calls):
    """Families of three lists: constant multiples of one polynomial with
    repeated roots, where the gcd met first divides the others and no
    GCDHEU runs, and families where it does not divide them.  The pair
    of `test_gcd_widens_the_point_after_a_failed_candidate`, followed by
    a small third list, has its gcd 2z - 1 found at a widened point and
    then carried on at the first: the third list is a multiple of 2z - 1
    (the divisibility shortcut) or is coprime to it (GCDHEU again)."""
    sp = pytest.importorskip("sympy")
    rng = random.Random(13)
    small_rng = random.Random(14)
    widens = [Poly([-2, 6, -2, -5, 2]), Poly([-2, 3, 0, 2, 4])]
    for _ in range(25):
        root = Poly([rng.randint(-9, 9), rng.randint(1, 4)])
        base = rng.choice((root ** 2, root ** 3 * (Z ** 2 + 1),
                           root ** 2 * _diff_poly(rng, rng.randint(0, 6))))
        scales = [Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))
                  for _ in range(3)]
        multiples = [base * c for c in scales]
        other = _diff_poly(rng, rng.randint(1, 6))
        cofactors = [_diff_poly(rng, rng.randint(0, 5)) for _ in range(3)]
        # Entries below 2**6 keep the first point at xi = 2**8.
        small = Poly([small_rng.randint(-3, 3)
                      for _ in range(small_rng.randint(0, 4))]
                     + [small_rng.choice((-3, -2, -1, 1, 2, 3))])
        for family, shortcut in (
                (multiples, True),
                ([multiples[0], multiples[1], base * other], False),
                ([base * c for c in cofactors], False),
                ([base * cofactors[0], base, base * cofactors[1]], False),
                (widens + [(2 * Z - 1) * small], False),
                (widens + [(2 * Z - 1) * small + 1], False)):
            heu_calls.clear()
            lists = [p.nums for p in family]
            want = _from_sympy(reduce(sp.Poly.gcd, [_to_sympy(sp, p)
                                                    for p in family]).monic())
            assert Poly._from_ints(_gcd_ints(lists)).monic() == want
            assert poly_gcd_many(family) == want
            assert poly_gcd_many(reversed(family)) == want
            if shortcut:
                assert not heu_calls


def _rand_rational_poly(rng) -> Poly:
    """Zero, a constant, or random rationals of degree 1-8, with a
    negative leading coefficient half the time."""
    shape = rng.choice(("zero", "constant", "random", "random"))
    if shape == "zero":
        return Poly()
    p = _diff_poly(rng, 0 if shape == "constant" else rng.randint(1, 8),
                   rng.choice((1, 0.5)))
    return -p if rng.random() < 0.5 else p


def _canonical(p: Poly) -> bool:
    return (p.den > 0 and gcd(p.den, *p.nums) == 1
            and (not p.nums or p.nums[-1] != 0))


def test_integer_poly_matches_sympy():
    sp = pytest.importorskip("sympy")
    rng = random.Random(1414)
    z = sp.Symbol("z")
    for _ in range(150):
        a, b = _rand_rational_poly(rng), _rand_rational_poly(rng)
        big_a, big_b = _to_sympy(sp, a), _to_sympy(sp, b)
        e = rng.randint(0, 3)
        results = [a + b, a - b, a * b, a ** e]
        assert results == [_from_sympy(big_a + big_b),
                           _from_sympy(big_a - big_b),
                           _from_sympy(big_a * big_b),
                           _from_sympy(big_a ** e)]
        if not b.is_zero:
            q, r = divmod(a, b)
            want_q, want_r = sp.div(big_a, big_b)
            assert (q, r) == (_from_sympy(want_q), _from_sympy(want_r))
            results += [q, r]
        if not a.is_zero:
            results.append(a.monic())
            assert results[-1] == _from_sympy(big_a.monic())
        family = [a, b, a * b, Poly()]
        if not (a.is_zero and b.is_zero):
            results.append(poly_gcd_many(family))
            assert results[-1] == _from_sympy(
                reduce(sp.Poly.gcd, [_to_sympy(sp, p) for p in family]).monic())
        assert all(_canonical(p) for p in results)
        x = rand_fraction(rng, 9, 9)
        value = big_a.eval(sp.Rational(x.numerator, x.denominator))
        assert a(x) == Fraction(int(value.p), int(value.q))
        w = GaussRat(rand_fraction(rng, 9, 9), rand_fraction(rng, 9, 9))
        value = sp.expand(big_a.as_expr().subs(
            z, sp.Rational(w.re.numerator, w.re.denominator)
            + sp.I * sp.Rational(w.im.numerator, w.im.denominator)))
        got = a(w)
        assert isinstance(got, GaussRat)
        assert (sp.Rational(got.re.numerator, got.re.denominator),
                sp.Rational(got.im.numerator, got.im.denominator)) == (
                    sp.re(value), sp.im(value))


def test_unreduced_input_is_stored_in_lowest_terms():
    half = Poly([Fraction(1, 2)])
    for p in (Poly([Fraction(2, 4)]), Poly._from_ints([2], 4),
              Poly._from_ints([-3, 0, 0], 6) * -1):
        assert p == half and (p.nums, p.den) == ([1], 2)
        assert hash(p) == hash(half) == hash(Fraction(1, 2))
    same = Poly._from_ints([2, 4, 6, 0, 0], 4)
    assert same == Poly([Fraction(1, 2), 1, Fraction(3, 2)])
    assert (same.nums, same.den) == ([1, 2, 3], 2)
    assert hash(same) == hash(Poly([Fraction(1, 2), 1, Fraction(3, 2)]))
    assert Poly([1, 2, 0, 0]).nums == [1, 2]
    zero = Poly._from_ints([0, 0], 7)
    assert (zero.nums, zero.den) == ([], 1) and zero == Poly() == 0
    assert all(type(c) is Fraction for c in Poly([1, 0, 2]).coeffs)


# -- integer elimination against sympy -------------------------------------------

entries = st.one_of(
    st.just(Fraction(0)), st.integers(-3, 3), fractions,
    st.fractions(min_value=-10 ** 15, max_value=10 ** 15,
                 max_denominator=10 ** 15))


@st.composite
def matrices(draw):
    """Random rational matrices, with rows that are combinations of
    earlier rows (rank deficiency) and zero rows mixed in."""
    cols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=1, max_size=6))
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                           st.integers(0, len(rows) - 1),
                                           fractions), max_size=3)):
        rows.append([x + c * y for x, y in zip(rows[i], rows[j])])
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * cols)
    return Matrix(rows)


def _check_against_sympy(sp, m: Matrix):
    def rat(x):
        return sp.Rational(x.numerator, x.denominator)

    oracle = sp.Matrix([[rat(e) for e in row] for row in m.entries])
    want, want_pivots = oracle.rref()
    # The RREF is the integer echelon's rows over their pivots, then zeros.
    echelon, pivots = _integer_echelon(_over_one_denominator(m.entries)[0],
                                       m.cols)
    reduced = [[Fraction(e, row[c]) for e in row]
               for row, c in zip(echelon, pivots)]
    reduced += [[0] * m.cols] * (m.rows - len(reduced))
    assert tuple(pivots) == want_pivots
    assert [[rat(e) for e in row] for row in reduced] == want.tolist()
    assert len(pivots) == oracle.rank()
    basis = m.nullspace()
    assert [[rat(e) for e in v] for v in basis] == [list(v) for v in oracle.nullspace()]
    assert all(type(e) is Fraction for v in basis for e in v)


@given(matrices())
def test_rref_rank_and_nullspace_match_sympy(m):
    sp = pytest.importorskip("sympy")
    _check_against_sympy(sp, m)


def test_rref_rank_and_nullspace_edge_cases_match_sympy():
    sp = pytest.importorskip("sympy")
    big = Fraction(10 ** 40 + 1, 3 ** 50)
    for rows in ([[0, 0, 0]], [[0], [0]], [[Fraction(1, 7)]], [[5, 10, 15]],
                 [[big, 1], [2 * big, 2], [0, 0]],
                 [[Fraction(1, 10 ** 20), Fraction(-1, 3)],
                  [Fraction(1, 7), Fraction(10 ** 20, 9)]],
                 [[1, 2, 3], [2, 4, 6], [1, 0, -1], [0, 2, 4]]):
        _check_against_sympy(sp, Matrix(rows))


# -- the integer kernel against Matrix and sympy --------------------------------

def _primitive(vectors):
    """Rational vectors scaled to integers over their lcm denominator: the
    primitive integer multiples that keep each vector's sign."""
    return [_over_one_denominator((list(v),))[0][0] for v in vectors]


def _check_kernel(rows, cols, sp=None):
    """The kernel's contract on integer rows, its agreement with
    `Matrix.nullspace` after scaling and, given sympy, with sympy's
    nullspace after scaling."""
    before = [list(row) for row in rows]
    basis = _integer_nullspace(rows, cols)
    assert rows == before
    for v in basis:
        assert len(v) == cols and all(type(e) is int for e in v)
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
        assert gcd(*v) == 1 and next(filter(None, reversed(v))) > 0
    if rows:
        m = Matrix(rows)
        assert len(basis) == cols - _rank(m)
        assert basis == _primitive(m.nullspace())
    if sp is not None:
        oracle = sp.Matrix(rows) if rows else sp.zeros(0, cols)
        want = [[Fraction(int(x.p), int(x.q)) for x in v]
                for v in oracle.nullspace()]
        assert basis == _primitive(want)
    return basis


@st.composite
def integer_rows(draw):
    """Integer matrices with small and wide entries, rows that are integer
    combinations of earlier rows, duplicates and zero rows mixed in."""
    cols = draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-3, 3), st.integers(-10 ** 20, 10 ** 20))
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=1, max_size=6))
    for i, j, a, b in draw(st.lists(st.tuples(
            st.integers(0, len(rows) - 1), st.integers(0, len(rows) - 1),
            st.integers(-4, 4), st.integers(-4, 4)), max_size=3)):
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))),
                    list(rows[draw(st.integers(0, len(rows) - 1))]))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * cols)
    return rows


@settings(deadline=None)
@given(integer_rows())
def test_integer_nullspace_matches_matrix_and_sympy(rows):
    sp = pytest.importorskip("sympy")
    _check_kernel(rows, len(rows[0]), sp)


@pytest.mark.parametrize("rows, cols, dim", [
    ([[1, 2, 3], [0, 0, 0], [4, 5, 6]], 3, 1),               # a zero row
    ([[2, -4, 6, 8], [2, -4, 6, 8], [1, -2, 3, 4]], 4, 3),    # duplicates
    ([[1, 0], [0, 1], [3, 5]], 2, 0),                        # full column rank
    ([[6, 10, 15], [0, 7, 0], [0, 0, -11]], 3, 0),
    ([[0, 0, 0], [0, 0, 0]], 3, 3),                          # all zero
    ([], 3, 3),
    ([[4, -6, 10]], 3, 2),                                   # 1 x n
    ([[0, 5, 0, 0, -3]], 5, 4),
    ([[2], [4], [0]], 1, 0),                                 # n x 1
    ([[0], [0]], 1, 1),
    ([[10 ** 30 + 1, 3], [2 * 10 ** 30 + 2, 6], [1, 1]], 2, 0),
])
def test_integer_nullspace_edge_cases(rows, cols, dim):
    sp = pytest.importorskip("sympy")
    assert len(_check_kernel(rows, cols, sp)) == dim


def test_integer_nullspace_scales_each_line_to_primitive_integers():
    # x + 2y + 3z = 0 over Q: the RREF null vectors (-2, 1, 0), (-3, 0, 1).
    assert _integer_nullspace([[1, 2, 3]], 3) == [[-2, 1, 0], [-3, 0, 1]]
    # 2x = 3y and 4x = 5z: the RREF null vector (5/4, 5/6, 1) scales to
    # (15, 10, 12).
    assert _integer_nullspace([[2, -3, 0], [4, 0, -5]], 3) == [[15, 10, 12]]
    assert _integer_nullspace([[0, 4], [0, -6]], 2) == [[1, 0]]


def _intertwiner_system(monkeypatch, first, second, dmax):
    """The integer rows, and their column count, that find_intertwiner
    hands to the kernel."""
    import slicereg.equiv
    seen = []

    def recording(rows, cols):
        seen.append((rows, cols))
        return _integer_nullspace(rows, cols)

    monkeypatch.setattr(slicereg.equiv, "_integer_nullspace", recording)
    find_intertwiner(first, second, dmax)
    return seen[0]


def test_intertwiner_systems_match_sympy(monkeypatch):
    """W = -V is the one case the intertwiner search solves as a system."""
    sp = pytest.importorskip("sympy")
    first = parse_stem("1 + z*i + z^2*j")
    planted = parse_stem("1/3*i - 2/5*z*j + z^2*(1/7 + k)")
    wide = parse_stem("z*i + (2/3)*j - z^2*k + 5*z^3*i")
    for f, dmax in ((first, 2), (first, 8), (first, 12), (planted, 4),
                    (wide, 6)):
        h = f.conj()    # c - V: W = -V
        # B(A, V) = 0 on the pure unknowns: one row per degree up to
        # top, 3 columns per degree up to dmax.
        rows, cols = _intertwiner_system(monkeypatch, f, h, dmax)
        top = dmax + f.degree
        assert (len(rows), cols) == (top + 1, 3 * (dmax + 1))
        _check_against_sympy(sp, Matrix(rows))
        _check_kernel(rows, cols, sp)


def test_matrix_entries_must_be_rational():
    with pytest.raises(TypeError):
        Matrix([[GaussRat(0, 1)]])
    with pytest.raises(TypeError):
        Matrix([[0.5]])

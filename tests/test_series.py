import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicereg import (CQuatF, NearSingularSampleError, Poly, Quaternion,
                      StemPoly, TruncSeries, check_conjugation_identity,
                      numeric_roots, taylor_series)
from slicereg.algebra import QI, QJ, QK
from slicereg.series import DEFAULT_SAMPLES, parse_samples

from support import (rand_fraction, rand_stem, reference_eval_numeric,
                     reference_taylor_series, series_from_stem,
                     truncated_convolution)


def series_triple(order):
    rotating = (taylor_series("cos", order) * QI
                + taylor_series("sin", order) * QJ)
    conjugator = (taylor_series("cos_half", order)
                  - taylor_series("sin_half", order) * QK)
    return TruncSeries.constant(QI, order), rotating, conjugator


def test_builder_coefficients():
    cos4 = taylor_series("cos", 4)
    assert [c.c0 for c in cos4.coeffs] == [1, 0, Fraction(-1, 2), 0]
    sin4 = taylor_series("sin", 4)
    assert [c.c0 for c in sin4.coeffs] == [0, 1, 0, Fraction(-1, 6)]
    cos_half3 = taylor_series("cos_half", 3)
    assert [c.c0 for c in cos_half3.coeffs] == [1, 0, Fraction(-1, 8)]
    exp3 = taylor_series("exp", 3)
    assert [c.c0 for c in exp3.coeffs] == [1, 1, Fraction(1, 2)]
    with pytest.raises(ValueError):
        taylor_series("tan", 4)
    with pytest.raises(ValueError):
        taylor_series("cos", 0)


def test_taylor_series_matches_the_fraction_reference():
    for kind in ("cos", "sin", "exp", "cos_half", "sin_half"):
        for order in range(1, 81):
            series = taylor_series(kind, order)
            ref = reference_taylor_series(kind, order)
            assert (series.order, series.stem.nums, series.stem.den) == (
                ref.order, ref.stem.nums, ref.stem.den)
            assert series.majorant == ref.majorant
            assert series.is_polynomial is ref.is_polynomial is False


def test_rotating_series_identities_exact():
    _, rotating, _ = series_triple(20)
    assert rotating.norm() == TruncSeries.constant(1, 20)
    assert rotating.trace() == TruncSeries.constant(0, 20)
    assert rotating.conj() == -rotating


@pytest.mark.parametrize("order", [5, 12, 23, 37, 48, 60])
def test_rotating_norm_is_one_at_many_orders(order):
    _, rotating, _ = series_triple(order)
    assert rotating.norm() == TruncSeries.constant(1, order)


def test_truncation_coherence_with_stem_operations():
    rng = random.Random(1234)
    for _ in range(25):
        f = rand_stem(rng, 4)
        g = rand_stem(rng, 4)
        order = rng.randint(1, 6)
        sf = series_from_stem(f, order)
        sg = series_from_stem(g, order)
        full = f.star(g)
        truncated = sf.star(sg)
        assert all(truncated.coeff(k) == full.coeff(k) for k in range(order))
        total = sf + sg
        assert all(total.coeff(k) == (f + g).coeff(k) for k in range(order))
        assert all(sf.conj().coeff(k) == f.conj().coeff(k) for k in range(order))
        assert all(sf.trace().coeff(k) == f.trace().coeff(k) for k in range(order))


def test_eval_numeric_hyperbolic_values():
    _, rotating, _ = series_triple(40)
    for t in (0.5, 1.0):
        value, tail = rotating.eval_numeric(CQuatF(0, 0, t, 0))
        expected = CQuatF(-math.sinh(t), math.cosh(t), 0, 0)
        assert value.distance(expected) <= 1e-10
        assert tail <= 1e-30
    value, _ = rotating.eval_numeric(CQuatF(0, 0, 0, 0))
    assert value.distance(CQuatF(0, 1, 0, 0)) == 0.0


def test_eval_numeric_against_library_cosine():
    cos40 = taylor_series("cos", 40)
    value, _ = cos40.eval_numeric(CQuatF(math.pi / 3))
    assert abs(value.c0 - 0.5) <= 1e-10
    assert value.is_central


def test_tail_bound_is_honest_for_builders():
    cos8 = taylor_series("cos", 8)
    z = 1.3
    value, tail = cos8.eval_numeric(CQuatF(z))
    actual_error = abs(value.c0 - math.cos(z))
    assert actual_error <= tail
    assert tail < 1e-3
    # Far radii overflow the bound: it is infinite, not an error.
    assert taylor_series("cos", 40).tail_bound(1e10) == math.inf


def test_tail_bound_is_honest_for_products_and_sums():
    """Every reported tail bounds the true error of the truncated series,
    for builders times constants (either side), sums and products, and a
    product with a polynomial series, at central points with |z| <= 1.5."""
    cos, sin, exp = (taylor_series(kind, 10) for kind in ("cos", "sin", "exp"))
    poly = TruncSeries(10, [1, QI, QJ * Fraction(1, 2)])
    cases = (
        (cos * QI, lambda z: CQuatF(cmath.cos(z)) * QI),
        (QJ * sin, lambda z: QJ * CQuatF(cmath.sin(z))),
        (exp * (1 + QK), lambda z: CQuatF(cmath.exp(z)) * (1 + QK)),
        (cos * QI + sin * QJ,
         lambda z: CQuatF(0, cmath.cos(z), cmath.sin(z), 0)),
        ((cos * QI) * (sin * QJ),
         lambda z: CQuatF(0, 0, 0, cmath.cos(z) * cmath.sin(z))),
        (exp * poly, lambda z: CQuatF(cmath.exp(z))
         * CQuatF(1, z, z * z / 2, 0)),
        (cos + exp * QK - poly,
         lambda z: CQuatF(cmath.cos(z) - 1, -z, -z * z / 2, cmath.exp(z))),
    )
    points = DEFAULT_SAMPLES + (1.5, -1.5, 1.5j, cmath.rect(1.5, 2.0))
    for series, function in cases:
        assert series.majorant[0] > 0
        for z in points:
            value, tail = series.eval_numeric(CQuatF(z))
            assert value.distance(function(z)) <= tail
    # The example that read a zero tail: cos * i at 1.5.
    value, tail = (cos * QI).eval_numeric(CQuatF(1.5))
    assert value.distance(CQuatF(0, math.cos(1.5))) > 1e-5
    assert tail == cos.eval_numeric(CQuatF(1.5)).tail_bound


def test_a_series_from_coefficients_gets_their_majorant():
    """A constant q gets (|q|, 0), a polynomial (max |a_k| * k!, 1), and a
    polynomial series still reports an exact zero tail."""
    assert TruncSeries.constant(QI + QJ, 3).majorant == (math.sqrt(2), 0.0)
    assert TruncSeries.constant(0, 3).majorant == (0.0, 0.0)
    series = TruncSeries(4, [1, QI, Fraction(-3, 2) * QJ])
    assert series.majorant == (3.0, 1.0)
    assert series.eval_numeric(CQuatF(1.5)).tail_bound == 0.0
    # A trace doubles C and keeps A and the polynomial flag.
    for s in (series, taylor_series("sin_half", 9)):
        trace = s.trace()
        assert (trace.majorant, trace.is_polynomial) == (
            (2 * s.majorant[0], s.majorant[1]), s.is_polynomial)
    # Past the largest factorial a float holds, the majorant is infinite.
    assert TruncSeries(200, [0] * 199 + [1]).majorant == (math.inf, 1.0)
    assert (TruncSeries(200, [0] * 199 + [1]) * taylor_series("exp", 200)
            ).tail_bound(1e-3) == math.inf


def test_polynomial_series_evaluates_exactly():
    rng = random.Random(777)
    for _ in range(20):
        stem = rand_stem(rng, 4)
        series = series_from_stem(stem)
        x = rand_fraction(rng, 3, 3)
        value, tail = series.eval_numeric(CQuatF(float(x)))
        assert tail == 0.0
        exact = stem.eval_stem(x)
        reference = CQuatF(float(exact.c0.re), float(exact.c1.re),
                           float(exact.c2.re), float(exact.c3.re))
        scale = max(1.0, reference.euclid())
        assert value.distance(reference) <= 1e-12 * scale


def test_conjugation_identity_report():
    constant, rotating, conjugator = series_triple(40)
    report = check_conjugation_identity(constant, rotating, conjugator)
    assert report.all_pass
    assert len(report.checks) == len(DEFAULT_SAMPLES)

    at_zero = check_conjugation_identity(constant, rotating, conjugator,
                                         samples=(0.0,))
    assert at_zero.all_pass
    assert at_zero.checks[0].value_error == 0.0

    impossible = check_conjugation_identity(constant, rotating, conjugator,
                                            tol=1e-300)
    assert not impossible.all_pass


def test_conjugation_identity_near_singular_sample():
    order = 20
    constant, rotating, _ = series_triple(order)
    vanishing = taylor_series("sin", order)  # norm sin(z)^2 vanishes at 0
    with pytest.raises(NearSingularSampleError):
        check_conjugation_identity(constant, rotating, vanishing,
                                   samples=(0.0, 1.0))
    # Nonzero values on the null cone: 1 + z*i at z = 1j has norm
    # 1 + (1j)**2 = 0, and scaled by 10**10 just off it, at 1e-20 + 1j, a
    # norm of about 2 against a squared size of 2e20.  Neither is invertible
    # in double precision, however loose or tight the tolerance.
    for scale, z in ((1, 1j), (10**10, 1e-20 + 1j)):
        null = TruncSeries(order, [Quaternion(scale), QI * scale])
        for tol in (1e-12, 10.0):
            with pytest.raises(NearSingularSampleError):
                check_conjugation_identity(constant, rotating, null,
                                           samples=(z,), tol=tol)


def test_numeric_roots_display():
    roots = numeric_roots(Poly([2, 0, 1]))
    assert len(roots) == 2
    assert all(abs(r.real) < 1e-9 for r in roots)
    assert sorted(abs(r.imag) for r in roots)[0] == pytest.approx(math.sqrt(2))
    assert numeric_roots(Poly([5])) == []


def test_parse_samples():
    assert parse_samples("0.3, 1, -0.7") == (0.3 + 0j, 1 + 0j, -0.7 + 0j)
    assert parse_samples("0.5+0.5i -1.2i") == (0.5 + 0.5j, -1.2j)
    with pytest.raises(ValueError):
        parse_samples("zebra")
    with pytest.raises(ValueError):
        parse_samples("  ")


def test_series_equality_and_padding():
    a = TruncSeries(4, [Quaternion(1)])
    b = TruncSeries.constant(1, 4)
    assert a == b
    assert a != TruncSeries.constant(1, 5)  # orders differ
    assert a.coeffs == (Quaternion(1), Quaternion(), Quaternion(), Quaternion())
    assert TruncSeries(3, [0, QI]).coeffs == (Quaternion(), QI, Quaternion())
    assert a.coeff(3) == a.coeff(7) == a.coeff(-1) == Quaternion()


def test_scalars_on_the_left():
    s = TruncSeries(4, [1, QJ, Fraction(1, 2)])
    assert 1 - s == TruncSeries.constant(1, 4) - s == -(s - 1)
    assert QI * s == TruncSeries.constant(QI, 4).star(s)
    assert QI * s != s * QI
    assert 2 * s == s * 2 == s + s


def test_too_many_coefficients_are_refused_even_when_zero():
    for coeffs in ([1, 2, 3], [1, 0, 0], [0, 0, 0]):
        with pytest.raises(ValueError):
            TruncSeries(2, coeffs)
    with pytest.raises(ValueError):
        TruncSeries(2, StemPoly([1, 0, QI]))
    assert TruncSeries(2, StemPoly([1, QI, 0, 0])) == TruncSeries(2, [1, QI])


_fractions = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.fractions(min_value=-10 ** 9, max_value=10 ** 9,
                 max_denominator=10 ** 9))
_quaternions = st.builds(Quaternion, _fractions, _fractions, _fractions,
                         _fractions)


@st.composite
def _series(draw):
    """A series of random order with some trailing zero coefficients, so
    that the polynomial flag depends on the degrees, and a majorant."""
    order = draw(st.integers(1, 12))
    coeffs = draw(st.lists(_quaternions, max_size=order))
    majorant = (draw(st.floats(0, 10)), draw(st.floats(0, 2)))
    return TruncSeries(order, coeffs, majorant, draw(st.booleans()))


def _same_series(got, want):
    assert got == want
    assert got.majorant == want.majorant
    assert got.is_polynomial == want.is_polynomial


@given(_series(), _series())
def test_series_star_matches_the_truncated_convolution(left, right):
    _same_series(left.star(right), truncated_convolution(left, right))
    _same_series(right.star(left), truncated_convolution(right, left))


def test_series_star_matches_the_truncated_convolution_on_builders():
    rng = random.Random(4321)
    stem = rand_stem(rng, 9)
    for first, second in ((taylor_series("cos", 40), taylor_series("sin", 23)),
                          (taylor_series("exp", 7) * QI,
                           series_from_stem(stem, 5)),
                          (series_from_stem(stem), taylor_series("cos_half", 30)),
                          (series_from_stem(stem, 12),
                           series_from_stem(stem, 4)),
                          # Polynomial operands whose degrees sum to just
                          # below, and to exactly, the order.
                          (TruncSeries(5, [1, QI, 2]), TruncSeries(5, [QJ, 0, 3])),
                          (TruncSeries(4, [1, QI, 2]), TruncSeries(4, [QJ, 0, 3]))):
        _same_series(first.star(second), truncated_convolution(first, second))
        _same_series(second.star(first), truncated_convolution(second, first))
    for scalar in (QJ, Fraction(-3, 7), 0):
        series = taylor_series("sin_half", 9)
        _same_series(series.star(scalar), truncated_convolution(
            series, TruncSeries.constant(scalar, 9)))


@given(st.integers(1, 12), st.lists(_quaternions, max_size=12))
def test_series_from_a_list_equals_the_series_from_its_stem(order, coeffs):
    coeffs = coeffs[:order]
    series = TruncSeries(order, coeffs)
    stem = StemPoly(coeffs)
    assert series == TruncSeries(order, stem) == series_from_stem(stem, order)
    assert series.stem == stem
    assert len(series.coeffs) == order
    assert series.coeffs == stem.coeffs + (Quaternion(),) * (order - len(stem.coeffs))
    assert hash(series) == hash(TruncSeries(order, stem))


_floats = st.floats(-3, 3)
_points = st.builds(CQuatF, *(st.builds(complex, _floats, _floats)
                              for _ in range(4)))


def _same_bits(got: CQuatF, want: CQuatF):
    assert repr(got) == repr(want)


@given(_series(), _points)
def test_eval_numeric_matches_the_quaternion_horner_loop(series, q):
    value, tail = series.eval_numeric(q)
    _same_bits(value, reference_eval_numeric(series, q))


def test_eval_numeric_matches_the_quaternion_horner_loop_on_builders():
    _, rotating, conjugator = series_triple(80)
    points = [CQuatF(complex(z)) for z in DEFAULT_SAMPLES + (20.0, -7.5j)]
    points += [CQuatF(0, 0, t, 0) for t in (0.5, 1.0)]
    # Non-central points, with complex coordinates as well.
    points += [CQuatF(0.25, -0.5, 0.75j, 1 - 0.5j), CQuatF(0, 1j, 0, -2),
               CQuatF(-1.5, 0, 0, 0.5j)]
    # A far sample, whose powers overflow to inf and then to nan.
    points += [CQuatF(1e10), CQuatF(0, 1e10, 0, 0),
               CQuatF(1e150, 0, 1e150j, 0)]
    for series in (rotating, conjugator, taylor_series("exp", 160)):
        for q in points:
            _same_bits(series.eval_numeric(q).value,
                       reference_eval_numeric(series, q))
    far = [rotating.eval_numeric(q).value for q in points[-3:]]
    assert all(not cmath.isfinite(c) for value in far
               for c in value.components())

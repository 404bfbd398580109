import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicereg import (CQuat, CQuatF, Divisor, GaussRat, NotInWError, Poly,
                      Quaternion, R3Elem, R3StemPoly, SO3Matrix, StemPoly,
                      TruncSeries, ZeroDivisorError, ZeroInverseError,
                      aut_to_matrix, bform, conj_by_unit)
from slicereg.algebra import QI, QJ, QK

from support import (complex_conjugate, rand_cquat, rand_invertible_cquat,
                     so3_apply, so3_transpose)

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)
gaussrats = st.builds(GaussRat, fractions, fractions)
quaternions = st.builds(Quaternion, fractions, fractions, fractions, fractions)
cquats = st.builds(CQuat, gaussrats, gaussrats, gaussrats, gaussrats)

IOTA = GaussRat(0, 1)


# -- an independent multiplication oracle ------------------------------------------
#
# The complexification is an 8-dimensional real algebra with basis
# (1, i, j, k, E, Ei, Ej, Ek).  Build its structure constants from the
# quaternion sign table tensored with E*E = -1, and multiply coordinate
# vectors directly; this never touches the CQuat product code.

_QTAB = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def _to_vec8(x: CQuat):
    comps = x.components()
    return [c.re for c in comps] + [c.im for c in comps]


def _from_vec8(v):
    return CQuat(*(GaussRat(v[t], v[t + 4]) for t in range(4)))


def _oracle_mul(x: CQuat, y: CQuat) -> CQuat:
    a = _to_vec8(x)
    b = _to_vec8(y)
    out = [Fraction(0)] * 8
    for s in range(8):
        if not a[s]:
            continue
        for t in range(8):
            if not b[t]:
                continue
            sign, unit = _QTAB[(s % 4, t % 4)]
            iota_power = (s // 4) + (t // 4)
            if iota_power == 2:
                sign = -sign
            out[unit + 4 * (iota_power % 2)] += sign * a[s] * b[t]
    return _from_vec8(out)


def test_oracle_agrees_on_basic_products():
    i, j = CQuat(0, 1), CQuat(0, 0, 1)
    assert _oracle_mul(i, j) == CQuat(0, 0, 0, 1)


@given(cquats, cquats)
def test_multiplication_matches_structure_constant_oracle(x, y):
    assert x * y == _oracle_mul(x, y)


# -- defining relations and worked values ---------------------------------------------


def test_quaternion_relations():
    assert QI * QJ == QK
    assert QJ * QK == QI
    assert QK * QI == QJ
    assert QI * QI == Quaternion(-1)
    assert (1 + QI) * (1 - QI) == 2


def test_zero_divisor_product_vanishes():
    x = CQuat(0, 1, IOTA, 0)       # i + E*j
    assert x * (-x) == CQuat()
    assert x.norm() == GaussRat(0)
    assert bool(x)


def test_conj_fixes_center_and_negates_w():
    central = CQuat(GaussRat(3, 5))
    assert central.conj() == central
    x = CQuat(GaussRat(1), GaussRat(2), IOTA, GaussRat(0))  # 1 + 2i + Ej
    assert x.conj() == CQuat(GaussRat(1), GaussRat(-2), -IOTA, GaussRat(0))
    assert QI.conj() == -QI


def test_trace_and_norm_values():
    assert QI.trace() == 0 and QI.norm() == 1
    q = Quaternion(1, 2, 3, 4)
    assert q.trace() == 2
    assert q.norm() == 30  # 1 + 4 + 9 + 16, the sum-of-squares oracle
    assert CQuat(0, 1, IOTA, 0).norm() == GaussRat(0)


def test_inverse_values_and_errors():
    assert QI.inverse() == -QI
    assert (1 + QI).inverse() == Quaternion(Fraction(1, 2), Fraction(-1, 2))
    with pytest.raises(ZeroDivisorError):
        CQuat(0, 1, IOTA, 0).inverse()
    with pytest.raises(ZeroInverseError):
        CQuat().inverse()
    with pytest.raises(ZeroInverseError):
        Quaternion().inverse()


def test_split():
    c, w = CQuat(3, 2).split()
    assert c == GaussRat(3) and w == CQuat(0, 2)
    c, w = CQuat(7).split()
    assert c == GaussRat(7) and w == CQuat()
    c, w = CQuat(IOTA, GaussRat(1), GaussRat(0), IOTA).split()
    assert c == IOTA and w == CQuat(GaussRat(0), GaussRat(1), GaussRat(0), IOTA)


def test_bform():
    i = CQuat(0, 1)
    j = CQuat(0, 0, 1)
    assert bform(i, i) == GaussRat(1)
    assert bform(i, j) == GaussRat(0)
    v = CQuat(0, 1, IOTA, 0)
    assert bform(v, v) == GaussRat(0)
    with pytest.raises(NotInWError):
        bform(CQuat(1, 1), i)


def test_conj_by_unit_values():
    alpha = 1 + QK
    assert conj_by_unit(alpha, QI) == QJ           # (1+k) i (1+k)^-1
    assert conj_by_unit(alpha, QK) == QK
    assert conj_by_unit(Quaternion(2, 1, 1, 3), Quaternion(5)) == Quaternion(5)
    with pytest.raises(ZeroDivisorError):
        conj_by_unit(CQuat(0, 1, IOTA, 0), CQuat(0, 1))


def test_aut_to_matrix_values():
    assert aut_to_matrix(Quaternion(1)) == SO3Matrix(((1, 0, 0), (0, 1, 0),
                                                     (0, 0, 1)))
    m = aut_to_matrix(1 + QK)  # quarter turn about the k axis
    assert so3_apply(m, CQuat(0, 1)) == CQuat(0, 0, 1)
    assert so3_apply(m, CQuat(0, 0, 1)) == CQuat(0, -1)
    assert so3_apply(m, CQuat(0, 0, 0, 1)) == CQuat(0, 0, 0, 1)
    mk = aut_to_matrix(QK)
    assert so3_apply(mk, CQuat(0, 1)) == CQuat(0, -1)
    assert so3_apply(mk, CQuat(0, 0, 1)) == CQuat(0, 0, -1)
    assert so3_apply(mk, CQuat(0, 0, 0, 1)) == CQuat(0, 0, 0, 1)


def test_so3_constructor_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        SO3Matrix(((GaussRat(2), GaussRat(0), GaussRat(0)),
                   (GaussRat(0), GaussRat(1), GaussRat(0)),
                   (GaussRat(0), GaussRat(0), GaussRat(1))))


def test_aut_matrices_are_special_orthogonal_exactly():
    rng = random.Random(20402)
    for _ in range(25):
        alpha = rand_invertible_cquat(rng)
        m = aut_to_matrix(alpha)  # constructor enforces M^T M = 1, det = 1
        assert so3_transpose(so3_transpose(m)) == m
        assert m.det() == GaussRat(1)


# -- algebraic laws ---------------------------------------------------------------------


@given(cquats, cquats)
def test_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(cquats, cquats)
def test_conjugation_is_an_antiinvolution(x, y):
    assert (x * y).conj() == y.conj() * x.conj()
    assert x.conj().conj() == x


@given(cquats)
def test_trace_norm_central_and_conj_commutes(x):
    assert (x + x.conj()).w_part() == CQuat()
    assert (x * x.conj()).w_part() == CQuat()
    assert x * x.conj() == x.conj() * x
    assert x.norm() == x.conj().norm()
    assert complex_conjugate(x).conj() == complex_conjugate(x.conj())


@given(quaternions, quaternions)
def test_complexification_is_a_ring_homomorphism(a, b):
    ca, cb = CQuat.coerce(a), CQuat.coerce(b)
    assert ca == a.complexify()
    assert CQuat.coerce(a + b) == ca + cb
    assert CQuat.coerce(a - b) == ca - cb
    assert CQuat.coerce(a * b) == ca * cb
    assert CQuat.coerce(a.conj()) == ca.conj()
    assert ca.trace() == GaussRat(a.trace())
    assert ca.norm() == GaussRat(a.norm())
    if a:
        assert CQuat.coerce(a.inverse()) == ca.inverse()
    # A Quaternion operand promotes to the complexification, either side.
    for mixed in (a * cb, cb * a, a + cb, a - cb, cb - a):
        assert type(mixed) is CQuat
    assert a * cb == ca * cb and cb * a == cb * ca
    assert a + cb == ca + cb and a - cb == ca - cb and cb - a == cb - ca
    assert a == ca and ca == a and hash(a) == hash(ca)
    assert CQuatF.coerce(a) == CQuatF.coerce(ca)
    assert hash(CQuatF.coerce(a)) == hash(CQuatF.coerce(ca))
    assert type(CQuatF.coerce(a) * ca) is CQuatF
    # Equal values hash equally across the three types and their scalars.
    values = (a, ca, CQuatF.coerce(a), a.c0, ca.c0, float(a.c0), complex(a.c0))
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y), (x, y)


@given(quaternions, gaussrats, st.sampled_from([0, 1]))
def test_a_gaussian_scalar_promotes_a_quaternion_to_cquat(a, g, real):
    if real:
        g = GaussRat(g.re)  # central quaternions may then equal g
        a = Quaternion(a.c0)
    ca = a.complexify()
    # Either side, under + - * and ==, the result is the CQuat computation.
    for mixed, want in ((a * g, ca * g), (g * a, g * ca), (a + g, ca + g),
                        (g + a, g + ca), (a - g, ca - g), (g - a, g - ca)):
        assert type(mixed) is CQuat and mixed == want
    assert (a == g) == (ca == g) == (g == a)
    # CQuatF takes the Gaussian scalar as complex(re, im) in arithmetic.
    fa, z = CQuatF.coerce(a), complex(g)
    for mixed, want in ((fa * g, fa * z), (g * fa, z * fa), (fa + g, fa + z),
                        (g + fa, z + fa), (fa - g, fa - z), (g - fa, z - fa)):
        assert type(mixed) is CQuatF and mixed == want
    # Equal values hash equally, so == stays transitive through hashing.
    values = (a, ca, g, a.c0, ca.c0, fa, float(a.c0), complex(g))
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y), (x, y)
    if a.c0 == g and a.is_central:
        assert a == g == ca and g == a


def test_cquatf_equality_is_exact():
    # Promotion into CQuatF rounds, so an exact operand never equals one;
    # scalars compare exactly, as Python's own numbers do.
    third = Fraction(1, 3)
    assert CQuatF(1 / 3) != third and CQuatF(1 / 3) != Quaternion(third)
    assert CQuatF(1 + 1j) != CQuat(GaussRat(1, 1))
    assert CQuatF(1) != Quaternion(1) and Quaternion(1) != CQuatF(1)
    assert CQuatF(0.5) == Fraction(1, 2) == CQuatF(0.5)
    assert CQuatF(2) == 2 and hash(CQuatF(2)) == hash(2)
    assert CQuatF(1, 2) == CQuatF(1.0, 2.0)
    assert hash(CQuatF(1, 2)) == hash(CQuatF(1.0, 2.0))


def test_conjugation_preserves_trace_and_norm():
    rng = random.Random(7781)
    for _ in range(40):
        alpha = rand_invertible_cquat(rng)
        x = rand_cquat(rng)
        y = conj_by_unit(alpha, x)
        assert y.trace() == x.trace()
        assert y.norm() == x.norm()


# -- the split algebra pair type ------------------------------------------------------


def test_r3_componentwise_ops():
    x = R3Elem(QI, 1 + QJ)
    assert x.norm() == (Fraction(1), Fraction(2))
    assert x.swap() == R3Elem(1 + QJ, QI)
    assert R3Elem(1 + QI, 1 - QI).trace() == (Fraction(2), Fraction(2))
    y = R3Elem(QJ, QK)
    assert x * y == R3Elem(QI * QJ, (1 + QJ) * QK)
    assert (x + y).first == QI + QJ
    assert x - y == R3Elem(QI - QJ, 1 + QJ - QK)
    assert -x == R3Elem(-QI, -1 - QJ) and x + (-x) == R3Elem(0, 0)
    assert x.inverse() == R3Elem(-QI, (1 - QJ) * Fraction(1, 2))
    assert x * x.inverse() == x.inverse() * x == R3Elem(1, 1)
    for op in (operator.add, operator.sub):
        with pytest.raises(TypeError):
            op(x, QI)
    assert x.conj() == R3Elem(-QI, 1 - QJ)


def test_r3_quadratic_cone():
    assert R3Elem(QI, QJ).in_quadratic_cone()
    assert not R3Elem(1 + QI, 1 + 2 * QI).in_quadratic_cone()
    assert R3Elem(Quaternion(Fraction(3, 7)), Quaternion(Fraction(3, 7))).in_quadratic_cone()


def test_r3_rejects_mixed_kinds():
    with pytest.raises(ValueError):
        R3Elem(QI, CQuat(0, 1))
    with pytest.raises(ValueError):
        R3Elem(CQuat(0, 1), CQuat(0, IOTA)).in_quadratic_cone()


def test_repr_str_and_immutability_are_pinned():
    q = Quaternion(Fraction(1, 2), -1, 0, 3)
    cases = [
        (q, "Quaternion(1/2, -1, 0, 3)", "1/2 - i + 3*k"),
        (CQuat(GaussRat(1, -2), 1, 0, GaussRat(0, Fraction(1, 3))),
         "CQuat(GaussRat(Fraction(1, 1), Fraction(-2, 1)), "
         "GaussRat(Fraction(1, 1), Fraction(0, 1)), "
         "GaussRat(Fraction(0, 1), Fraction(0, 1)), "
         "GaussRat(Fraction(0, 1), Fraction(1, 3)))",
         "1 - 2*E + i + (1/3*E)*k"),
        (CQuatF(1 + 2j, 0.5, 0, -1),
         "CQuatF((1+2j), (0.5+0j), 0j, (-1+0j))",
         "(1+2j) + (0.5+0j)*i - k"),
        (R3Elem(q, QI), "R3Elem(Quaternion(1/2, -1, 0, 3), "
         "Quaternion(0, 1, 0, 0))", "(1/2 - i + 3*k ; i)"),
        (R3StemPoly(StemPoly([q, 1]), QJ),
         "R3StemPoly(StemPoly([Quaternion(1/2, -1, 0, 3), "
         "Quaternion(1, 0, 0, 0)]), StemPoly([Quaternion(0, 0, 1, 0)]))",
         "((1/2 - i + 3*k) + z*(1) ; (j))"),
        (Poly([Fraction(1, 2), 0, -3]),
         "Poly([Fraction(1, 2), Fraction(0, 1), Fraction(-3, 1)])",
         "1/2 - 3*z^2"),
        (Divisor(Poly([1, 0, Fraction(1, 2)])),
         "Divisor(Poly([Fraction(2, 1), Fraction(0, 1), Fraction(1, 1)]))",
         "2 + z^2"),
        (TruncSeries(2, [1, QI]),
         "TruncSeries(2, [Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0)])",
         "TruncSeries(2, [Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0)])"),
    ]
    for value, want_repr, want_str in cases:
        assert repr(value) == want_repr
        assert str(value) == want_str
        name = type(value).__name__
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            value.c0 = 0


def test_relation_block_matches_the_quaternion_product():
    from support import _relation_block
    rng = random.Random(344)
    for _ in range(20):
        c, d, a = ([rng.randint(-9, 9) for _ in range(4)] for _ in range(3))
        block = _relation_block(c, d)
        cq, dq = Quaternion(*c), Quaternion(*d)
        for aq in (Quaternion(1), QI, QJ, QK, Quaternion(*a)):
            image = [sum(e * x for e, x in zip(row, aq.components()))
                     for row in block]
            assert Quaternion(*image) == cq * aq - aq * dq

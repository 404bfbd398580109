import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicereg import (CQuat, GaussRat, NotInWError, Quaternion, R3Elem,
                      SO3Matrix, ZeroDivisorError, ZeroInverseError,
                      aut_to_matrix, bform, conj_by_unit)
from slicereg.algebra import QI, QJ, QK

from support import rand_cquat, rand_invertible_cquat

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
    assert aut_to_matrix(Quaternion(1)) == SO3Matrix.identity()
    m = aut_to_matrix(1 + QK)  # quarter turn about the k axis
    assert m.apply(CQuat(0, 1)) == CQuat(0, 0, 1)
    assert m.apply(CQuat(0, 0, 1)) == CQuat(0, -1)
    assert m.apply(CQuat(0, 0, 0, 1)) == CQuat(0, 0, 0, 1)
    mk = aut_to_matrix(QK)
    assert mk.apply(CQuat(0, 1)) == CQuat(0, -1)
    assert mk.apply(CQuat(0, 0, 1)) == CQuat(0, 0, -1)
    assert mk.apply(CQuat(0, 0, 0, 1)) == CQuat(0, 0, 0, 1)


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
        assert m.transpose().transpose() == m
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
    assert x.complex_conjugate().conj() == x.conj().complex_conjugate()


@given(quaternions)
def test_embedding_preserves_trace_and_norm(q):
    assert q.complexify().trace() == GaussRat(q.trace())
    assert q.complexify().norm() == GaussRat(q.norm())


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


def test_unit_products_table_matches_the_quaternion_product():
    from slicereg.algebra import UNIT_PRODUCTS
    units = (Quaternion(1), QI, QJ, QK)
    for s, es in enumerate(units):
        for t, et in enumerate(units):
            r, sign = UNIT_PRODUCTS[s][t]
            assert es * et == units[r] * sign

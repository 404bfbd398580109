import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicereg import (CQuat, CQuatF, Divisor, GaussRat, IOTA, Poly, Quaternion,
                      R3Elem, R3StemPoly, StemPoly, TruncSeries)
from slicereg.algebra import QI, SO3Matrix
from slicereg.poly import Matrix

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)
gaussrats = st.builds(GaussRat, fractions, fractions)


def test_iota_squares_to_minus_one():
    assert IOTA * IOTA == -1
    assert IOTA == GaussRat(0, 1)


def test_mixed_arithmetic_with_rationals():
    x = GaussRat(Fraction(1, 2), 3)
    assert x + 1 == GaussRat(Fraction(3, 2), 3)
    assert 1 + x == x + 1
    assert 2 * x == GaussRat(1, 6)
    assert x - Fraction(1, 2) == GaussRat(0, 3)
    assert Fraction(1, 2) - x == GaussRat(0, -3)


def test_division():
    assert GaussRat(1) / GaussRat(0, 1) == GaussRat(0, -1)
    assert (GaussRat(1, 1) / GaussRat(1, -1)) * GaussRat(1, -1) == GaussRat(1, 1)
    with pytest.raises(ZeroDivisionError):
        GaussRat(1) / GaussRat(0)
    x = GaussRat(Fraction(1, 2), 3)
    assert x / 2 == x / Fraction(2) == GaussRat(Fraction(1, 4), Fraction(3, 2))
    assert 1 / GaussRat(0, 2) == GaussRat(0, Fraction(-1, 2))
    assert Fraction(1, 2) / x == GaussRat(Fraction(1, 2)) / x
    assert (1 / x) * x == 1


def test_equality_and_hash_match_fraction_for_real_values():
    assert GaussRat(Fraction(2, 3)) == Fraction(2, 3)
    assert hash(GaussRat(Fraction(2, 3))) == hash(Fraction(2, 3))
    assert GaussRat(1, 1) != 1


def test_str_forms():
    assert str(GaussRat(0)) == "0"
    assert str(GaussRat(3, 0)) == "3"
    assert str(GaussRat(0, 1)) == "E"
    assert str(GaussRat(0, -1)) == "-E"
    assert str(GaussRat(Fraction(1, 2), Fraction(-3, 4))) == "1/2 - 3/4*E"


@given(gaussrats, gaussrats, gaussrats)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gaussrats, gaussrats)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@given(gaussrats)
def test_division_inverts_multiplication(a):
    if a:
        assert (GaussRat(1) / a) * a == 1


def test_immutability():
    x = GaussRat(1, 2)
    with pytest.raises(AttributeError):
        x.re = Fraction(5)


def test_power_multiplies_once_per_bit_and_never_squares_past_the_last():
    from slicereg.scalars import power
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    for exponent in (0, 1, 2, 5, 1000, 1024):
        calls.clear()
        assert power(3, exponent, 1, mul) == 3 ** exponent
        squarings = max(exponent.bit_length() - 1, 0)
        assert len(calls) == squarings + bin(exponent).count("1")


def test_every_pow_refuses_negative_and_non_integer_exponents():
    from slicereg import CQuat, Poly, Quaternion, StemPoly
    for value in (GaussRat(1, 2), Quaternion(1, 2), CQuat(IOTA),
                  Poly([1, 1]), StemPoly([1, Quaternion(0, 1)])):
        for exponent in (-1, Fraction(1, 2)):
            with pytest.raises(ValueError, match="^only nonnegative integer "
                               "powers are supported$"):
                value ** exponent


# -- the frozen base of the slotted values ---------------------------------------

FROZEN_VALUES = [
    Poly([1, Fraction(-2, 3)]),
    StemPoly([Fraction(1, 2), QI]),
    Quaternion(1, Fraction(2, 3)),
    CQuat(GaussRat(1, 2), 3),
    CQuatF(1.5, 2j),
    GaussRat(Fraction(1, 2), -3),
    Divisor(Poly([1, 0, 1])),
    R3Elem(QI, Quaternion(2)),
    R3StemPoly(StemPoly([1, QI]), StemPoly([QI])),
    TruncSeries(3, [1, QI], (2.0, 0.5), False),
    Matrix([[1, Fraction(1, 2)], [3, 4]]),
    SO3Matrix(((0, -1, 0), (1, 0, 0), (0, 0, 1))),
]


@pytest.mark.parametrize("value", FROZEN_VALUES,
                         ids=[type(v).__name__ for v in FROZEN_VALUES])
def test_frozen_values_copy_and_pickle_but_refuse_assignment(value):
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        if isinstance(value, Matrix):
            assert twin.entries == value.entries
        else:
            assert twin == value and hash(twin) == hash(value)
    names = [name for cls in type(value).__mro__
             for name in cls.__dict__.get("__slots__", ())]
    message = f"{type(value).__name__} is immutable"
    with pytest.raises(AttributeError, match=message):
        setattr(value, names[0], None)
    for name in names:
        kept = getattr(value, name)
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)
        assert getattr(value, name) is kept

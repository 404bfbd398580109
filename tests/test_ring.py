"""Mixed operands across every value class of the package.

Subtraction is written once, as a + (-b), for every ring class, and each
class lifts a product's operand through its `_operand`; this table pins
what each pair of operands gives, whatever class answers it.
"""

from fractions import Fraction

import pytest

from slicereg import (CQuat, CQuatF, GaussRat, Poly, Quaternion, R3Elem,
                      R3StemPoly, StemPoly, TruncSeries)
from slicereg.algebra import QI, QJ

HALF = Fraction(1, 2)

VALUES = {
    "0": 0,
    "1": 1,
    "Fraction": HALF,
    "float": 0.5,
    "complex": 0.5 - 2j,
    "GaussRat_real": GaussRat(HALF),
    "GaussRat_nonreal": GaussRat(1, -3),
    "Quaternion": Quaternion(HALF, 2, 0, -1),
    "Quaternion_central": Quaternion(1),
    "CQuat": CQuat(GaussRat(1, 1), 0, HALF),
    "CQuatF": CQuatF(0.5),
    "Poly": Poly([1, HALF, -2]),
    "Poly_constant": Poly([HALF]),
    "StemPoly": StemPoly([QI, QJ * 3, HALF]),
    "StemPoly_constant": StemPoly.constant(1),
    "TruncSeries": TruncSeries(3, [1, QI, QJ]),
    "R3Elem": R3Elem(Quaternion(1, 2), Quaternion(0, 0, HALF)),
    "R3StemPoly": R3StemPoly(StemPoly([QI, 1]), StemPoly([HALF, QJ])),
    "str": "x",
}


def _outcome(op):
    """op(), or TypeError when it raises that."""
    try:
        return op()
    except TypeError:
        return TypeError


@pytest.mark.parametrize("left", VALUES)
def test_difference_is_the_sum_with_the_negation(left):
    a = VALUES[left]
    for right, b in VALUES.items():
        difference = _outcome(lambda: a - b)
        total = _outcome(lambda: a + (-b))
        if difference is TypeError or total is TypeError:
            assert difference is total is TypeError, right
        else:
            assert type(difference) is type(total), right
            assert difference == total, right


@pytest.mark.parametrize("left", [name for name in VALUES if name != "str"])
def test_products_refuse_in_both_orders_and_commute_with_scalars(left):
    """`str` is left out: a string times an int repeats it."""
    a = VALUES[left]
    for right, b in VALUES.items():
        if right == "str":
            continue
        product, reverse = _outcome(lambda: a * b), _outcome(lambda: b * a)
        assert (product is TypeError) is (reverse is TypeError), right
        if product is not TypeError and isinstance(b, (int, Fraction,
                                                       GaussRat)):
            assert product == reverse, right


@pytest.mark.parametrize("left", VALUES)
def test_equality_is_symmetric_and_equal_values_hash_equally(left):
    a = VALUES[left]
    for right, b in VALUES.items():
        assert (a == b) is (b == a), right
        if a == b:
            assert hash(a) == hash(b), right

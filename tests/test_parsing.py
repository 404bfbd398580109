from fractions import Fraction

import pytest

from slicereg import (CQuat, GaussRat, LimitExceededError, ParseError, Poly,
                      Quaternion, R3Elem, StemPoly, UnitNotAllowedError,
                      VariableInPointError, parse_point, parse_r3_point,
                      parse_r3_stem, parse_stem, render_cquat, render_poly,
                      render_quat, render_stem)
from slicereg.algebra import QI, QJ, QK

IOTA = GaussRat(0, 1)


def test_worked_pair_expressions():
    assert parse_stem("i + z*j + (1/2)*z^2*k") == StemPoly(
        [QI, QJ, Quaternion(0, 0, 0, Fraction(1, 2))])
    assert parse_stem("(1 + (1/2)*z^2)*i") == StemPoly(
        [QI, Quaternion(), Quaternion(0, Fraction(1, 2))])


def test_point_mode_literal_assembly():
    point = parse_point("1 + i + E*j")
    assert point == CQuat(GaussRat(1), GaussRat(1), IOTA, GaussRat(0))
    assert parse_point("-3/4") == CQuat(GaussRat(Fraction(-3, 4)))
    assert parse_point("E^2") == CQuat(GaussRat(-1))


def test_precedence():
    assert parse_stem("-z^2") == -StemPoly.monomial(2)
    assert parse_stem("2*i^2") == StemPoly.constant(-2)
    assert parse_stem("-z^2 + z^2") == StemPoly()
    assert parse_point("2*i^2") == CQuat(-2)
    assert parse_stem("1 - -z") == StemPoly([1, 1])


def test_written_factor_order_is_preserved():
    assert parse_stem("i*j") == StemPoly.constant(QK)
    assert parse_stem("j*i") == StemPoly.constant(-QK)
    assert parse_stem("z*i*z") == parse_stem("z^2*i")
    assert parse_stem("i*z*j*z*k") == StemPoly([0, 0, Quaternion(-1)])  # ijk = -1


def test_variable_spellings_interchangeable_but_unmixed():
    assert parse_stem("q^2 + 1") == parse_stem("z^2 + 1")
    with pytest.raises(ParseError):
        parse_stem("z + q")


def test_mode_errors():
    with pytest.raises(UnitNotAllowedError):
        parse_stem("1 + E*z")
    with pytest.raises(VariableInPointError):
        parse_point("1 + z")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_stem("i + +")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_stem("1/0")
    with pytest.raises(ParseError):
        parse_stem("z$")
    with pytest.raises(ParseError):
        parse_stem("(1 + i")
    with pytest.raises(ParseError):
        parse_stem("1 2")
    with pytest.raises(ParseError):
        parse_stem("z^-1")
    with pytest.raises(ParseError):
        parse_stem("")


def test_pair_parsing():
    pair = parse_r3_stem("( 1 + z*i ; j )")
    assert pair.first == StemPoly([1, QI])
    assert pair.second == StemPoly.constant(QJ)

    point = parse_r3_point("( i ; 1 + j )")
    assert point == R3Elem(QI, 1 + QJ)
    complex_point = parse_r3_point("( E ; 1 )")
    assert not complex_point.is_real

    with pytest.raises(ParseError):
        parse_r3_stem("i ; j")
    with pytest.raises(ParseError):
        parse_r3_stem("( i , j )")
    # A semicolon inside nested parens does not split the pair.
    nested = parse_r3_stem("( (1 + z) * (1 - z) ; j )")
    assert nested.first == StemPoly([1, 0, -1])


GOLDEN = [
    "i + z*j + (1/2)*z^2*k",
    "(1 + (1/2)*z^2)*i",
    "(2 + (1/2)*z^2)*i + z*j + (1/2)*z^2*k",
    "z + i*z^2*(z - 1) + j*z^3*(z - 1)^2",
    "1 + i*z",
    "1 + j*(1 + z)",
    "-z^2",
    "2*i^2",
    "z*i*z",
    "-1/2 + 3*k",
    "0",
    "q^3*j",
]

GOLDEN_POINTS = [
    "1 + i + E*j",
    "E",
    "-3/4",
    "1/2 + 5/4*i - E*k",
    "0",
]


@pytest.mark.parametrize("text", GOLDEN)
def test_stem_round_trip(text):
    value = parse_stem(text)
    assert parse_stem(render_stem(value)) == value


@pytest.mark.parametrize("text", GOLDEN_POINTS)
def test_point_round_trip(text):
    value = parse_point(text)
    assert parse_point(render_cquat(value)) == value


def test_render_poly_golden():
    quartic = Poly([1, 0, 1, 0, Fraction(1, 4)])
    assert render_poly(quartic) == "1 + z^2 + 1/4*z^4"
    assert render_poly(Poly()) == "0"
    assert render_poly(Poly([0, -1])) == "-z"
    assert render_poly(Poly([Fraction(-1, 2), 0, 1])) == "-1/2 + z^2"
    assert render_poly(Poly([GaussRat(0, 1), GaussRat(2)])) == "(E) + 2*z"


def test_render_quat():
    assert render_quat(Quaternion(1, -1, 0, Fraction(2, 3))) == "1 - i + 2/3*k"
    assert render_quat(Quaternion()) == "0"


# -- limits ------------------------------------------------------------------------

def test_nesting_beyond_the_cap_is_a_parse_error():
    from slicereg.parsing import MAX_NESTING
    z = parse_stem("z")
    cap = MAX_NESTING
    assert parse_stem("(" * cap + "z" + ")" * cap) == z
    assert parse_stem("-" * cap + "z") == z * (-1) ** cap
    half = cap // 2
    assert parse_stem("-(" * half + "z" + ")" * half) == z * (-1) ** half
    # Depth is nesting, not the count of parentheses in the text.
    assert parse_stem(" + ".join(["(" * cap + "z" + ")" * cap] * 3)) == z * 3
    for text in ("(" * (cap + 1) + "z" + ")" * (cap + 1), "-" * (cap + 1) + "z",
                 "-(" * (half + 1) + "z" + ")" * (half + 1),
                 "(" * 3000 + "z" + ")" * 3000, "-" * 3000 + "z"):
        with pytest.raises(ParseError, match=f"deeper than {cap} levels"):
            parse_stem(text)


def test_long_sums_and_products_parse_without_deep_recursion():
    assert parse_stem(" + ".join(["z"] * 3000)) == parse_stem("3000*z")
    assert parse_stem(" - ".join(["z"] * 3001)) == parse_stem("-2999*z")
    assert parse_stem("*".join(["i"] * 3001)) == parse_stem("i")
    assert parse_stem("1 - z*i*j + 2*(z - 1)*k") == parse_stem("1 - 2*k + z*k")


def test_exponents_and_degrees_beyond_the_caps_are_refused():
    from slicereg.parsing import MAX_DEGREE, MAX_EXPONENT
    assert parse_stem(f"2^{MAX_EXPONENT}") == StemPoly.constant(2 ** MAX_EXPONENT)
    power = "(" * 9 + "z" + "^2)" * 9                   # z^512, by squaring
    assert parse_stem(power).degree == 512
    with pytest.raises(LimitExceededError, match=f"limit of {MAX_EXPONENT}"):
        parse_stem("z^99999999999999999999")
    with pytest.raises(LimitExceededError, match=f"limit of {MAX_EXPONENT}"):
        parse_point(f"i^{MAX_EXPONENT + 1}")
    for text in ("(z^30)^34", f"({power})^2", f"{power} * {power}"):
        with pytest.raises(LimitExceededError, match=f"limit of {MAX_DEGREE}"):
            parse_stem(text)

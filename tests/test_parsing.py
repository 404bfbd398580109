import math
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from slicereg import (CQuat, GaussRat, LimitExceededError, ParseError, Poly,
                      Quaternion, R3Elem, StemPoly, UnitNotAllowedError,
                      VariableInPointError, parse_point, parse_r3_point,
                      parse_r3_stem, parse_stem, render_cquat, render_poly,
                      render_quat, render_stem)
from slicereg.algebra import QI, QJ, QK

from support import (Add, Mul, Neg, Pow, RationalLit, Sub, Unit, Var,
                     reference_value, render_tree)

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


@pytest.mark.parametrize("text, position", [
    ("z²", 1), ("١+z", 0), ("2 + 3٣*z", 5)])
def test_only_ascii_digits_are_digits(text, position):
    # str.isdigit() also holds for superscripts and other scripts' digits.
    with pytest.raises(ParseError) as err:
        parse_stem(text)
    assert err.value.position == position
    assert str(err.value).startswith(
        f"unexpected character {text[position]!r}")


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
    # Each half picks its own spelling of the variable.
    assert parse_r3_stem("(z ; q^2)").second == StemPoly.monomial(2)


@pytest.mark.parametrize("parse, text, error, position", [
    (parse_r3_stem, "(i + + ; j)", ParseError, 5),
    (parse_r3_stem, "(i ; j + +)", ParseError, 9),
    (parse_r3_point, " (i ; j + +)", ParseError, 10),
    (parse_r3_stem, "(E ; j)", UnitNotAllowedError, 1),
    (parse_r3_point, "(1 ; z)", VariableInPointError, 5),
    (parse_r3_stem, "(i ; j ; k)", ParseError, 7),
    (parse_r3_stem, "(i) + (j ; k)", ParseError, 2),
    (parse_r3_stem, "(i)", ParseError, 2),
    (parse_r3_stem, "(i j)", ParseError, 3),
])
def test_pair_errors_count_positions_in_the_whole_text(parse, text, error,
                                                       position):
    with pytest.raises(error) as err:
        parse(text)
    assert err.value.position == position


def test_errors_are_reported_in_reading_order():
    # The first fault in the text is named, whatever its kind.
    for text, error, position in [("E + (", UnitNotAllowedError, 0),
                                  ("z + q + ", ParseError, 4),
                                  ("(E)^2000", UnitNotAllowedError, 1)]:
        with pytest.raises(error) as err:
            parse_stem(text)
        assert err.value.position == position
    with pytest.raises(VariableInPointError) as err:
        parse_point("z (")
    assert err.value.position == 0
    with pytest.raises(LimitExceededError):
        parse_stem("z^2000 +")


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


def test_render_cquat_golden():
    # A non-real coefficient of a unit is parenthesized, so the text
    # reparses to the same point.
    cases = [
        (CQuat(1, GaussRat(1, 1), 0, GaussRat(0, 1)), "1 + (1 + E)*i + (E)*k"),
        (CQuat(0, GaussRat(0, -2), 3, GaussRat(-1, 1)),
         "(-2*E)*i + 3*j + (-1 + E)*k"),
        (CQuat(GaussRat(1, 1), -1, 1, GaussRat(0, -1)), "1 + E - i + j + (-E)*k"),
        (CQuat(Fraction(1, 2), Fraction(-3, 4)), "1/2 - 3/4*i"),
    ]
    for value, text in cases:
        assert render_cquat(value) == text
        assert parse_point(text) == value


def test_render_poly_golden():
    quartic = Poly([1, 0, 1, 0, Fraction(1, 4)])
    assert render_poly(quartic) == "1 + z^2 + 1/4*z^4"
    assert render_poly(Poly()) == "0"
    assert render_poly(Poly([0, -1])) == "-z"
    assert render_poly(Poly([Fraction(-1, 2), 0, 1])) == "-1/2 + z^2"


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


def test_degree_cap_reads_the_degrees_of_trimmed_operands():
    from slicereg.parsing import MAX_DEGREE
    top = f"z^{MAX_DEGREE}"
    # A factor that cancels has degree -1 (zero) or 0, whatever it was
    # written as, so these products stay within the cap.
    assert parse_stem(f"(z - z)*{top}") == StemPoly()
    assert parse_stem(f"0*{top}*{top}") == StemPoly()
    assert parse_stem(f"(z - z)^{MAX_DEGREE}*{top}") == StemPoly()
    assert parse_stem(f"({top} - {top} + i)*{top}") == StemPoly.monomial(
        MAX_DEGREE, QI)
    assert parse_stem(f"({top} - {top} + i)^2") == StemPoly.constant(-1)
    with pytest.raises(LimitExceededError, match=f"degree {MAX_DEGREE + 1} "):
        parse_stem(f"({top} - {top} + z)*{top}")


def test_large_powers_match_the_binomial_coefficients():
    assert parse_stem("z^1000") == StemPoly.monomial(1000)
    assert parse_stem("(1+z)^200").coeffs == tuple(
        Quaternion(math.comb(200, k)) for k in range(201))
    units = (Quaternion(1), QI, Quaternion(-1), -QI)      # i^k, k mod 4
    assert parse_stem("(1 + z*i)^200").coeffs == tuple(
        units[k % 4] * math.comb(200, k) for k in range(201))


def test_a_power_of_the_variable_is_the_monomial():
    from slicereg.parsing import MAX_DEGREE
    from slicereg.stem import Z
    for n in [*range(41), MAX_DEGREE]:
        power = Z ** n
        for text in (f"z^{n}", f"q^{n}", f"(z)^{n}"):
            assert parse_stem(text) == power
            assert repr(parse_stem(text).parts) == repr(power.parts)
    with pytest.raises(LimitExceededError, match=f"limit of {MAX_DEGREE}"):
        parse_stem(f"z^{MAX_DEGREE + 1}")
    # Powers of anything else still multiply out.
    assert parse_stem("(2*z)^3") == StemPoly([0, 0, 0, 8])
    assert parse_stem("(1+z)^3") == StemPoly([1, 3, 3, 1])
    assert parse_stem("(z*i)^3") == StemPoly([0, 0, 0, -QI])


# -- the parser against values built from the generated tree ------------------

_RATIONALS = st.tuples(st.integers(0, 40), st.integers(1, 12)).map(
    lambda t: RationalLit(Fraction(*t)))


def _chain(operands, kinds):
    """The left-deep tree of a flat chain (a) op1 (b) op2 (c)..."""
    return reduce(lambda left, step: step[0](left, step[1]),
                  zip(kinds, operands[1:]), operands[0])


def _expressions(names):
    """(text, value) of random expression trees over the given names: unit
    products in written order, unary minus, flat chains of sums and
    differences, nested powers and rationals.  The value is the tree's
    dense CQuat coefficient list, computed from the generated tree itself
    by `reference_value` and never by the parser under test."""
    leaves = st.one_of(_RATIONALS, st.sampled_from(names).map(
        lambda name: Var(name) if name == "z" else Unit(name)))

    def extend(inner):
        operands = st.lists(inner, min_size=2, max_size=4)
        return st.one_of(
            inner.map(Neg),
            operands.map(lambda xs: _chain(xs, [Mul] * (len(xs) - 1))),
            st.tuples(operands, st.lists(st.sampled_from([Add, Sub]),
                                         min_size=3, max_size=3)).map(
                lambda t: _chain(*t)),
            st.tuples(inner, st.integers(0, 3)).map(lambda t: Pow(*t)))
    return st.recursive(leaves, extend, max_leaves=10).map(
        lambda tree: (render_tree(tree), reference_value(tree)))


@given(_expressions("ijkz"))
def test_parse_stem_matches_the_reference_normalizer(expression):
    text, value = expression
    assume(len(value) <= 13)
    assert parse_stem(text) == StemPoly(c.to_quaternion() for c in value)


@given(_expressions("ijkE"))
def test_parse_point_matches_the_reference_normalizer(expression):
    text, (value,) = expression
    assert parse_point(text) == value

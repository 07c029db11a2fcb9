"""Parser grammar conformance and error reporting."""

import sys

import pytest

from resint import ParseError, Ring, UnknownVariableError, parse_poly
from resint.parser import NESTING_LIMIT, NegativeExponentError
from resint.poly import DegreeOverflowError

R = Ring(["x", "y"])


def test_basic_expression():
    p = parse_poly("x^2*y - 3*y + 1", R)
    assert len(p.terms) == 3
    assert {sum(m) for m, _ in p.terms} == {3, 1, 0}


def test_zero_literal():
    assert parse_poly("0", R).terms == ()


def test_unary_minus_at_head():
    assert parse_poly("-x + y", R) == parse_poly("y - x", R)
    assert parse_poly("-(x - y)", R) == parse_poly("y - x", R)


def test_whitespace_insignificant():
    assert parse_poly(" x ^ 2 * y ", R) == parse_poly("x^2*y", R)


def test_parentheses():
    assert parse_poly("(x + 1)*(x - 1)", R) == parse_poly("x^2 - 1", R)
    deepest = "(" * NESTING_LIMIT + "x" + ")" * NESTING_LIMIT
    assert parse_poly(deepest, R) == R.var("x")


@pytest.mark.parametrize(
    "source, position",
    [
        ("(" * 101 + "x" + ")" * 101, 100),
        ("y*( (" + "(" * 99 + "x" + ")" * 101, 103),
        ("(" * 2000 + "x" + ")" * 2000, 100),
    ],
    ids=["101", "after-a-factor", "2000"],
)
def test_nesting_past_the_limit_names_its_position(source, position):
    with pytest.raises(ParseError, match="parentheses nested deeper than 100") as exc:
        parse_poly(source, R)
    assert exc.value.position == position


def test_unknown_variable_names_offender():
    with pytest.raises(UnknownVariableError) as exc:
        parse_poly("x + w", R)
    assert "w" in str(exc.value)


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_poly("x + * y", R)
    assert exc.value.position == 4


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_poly("x + y )", R)


def test_negative_exponent_rejected():
    with pytest.raises(NegativeExponentError):
        parse_poly("x^-2", R)


def test_missing_operand():
    with pytest.raises(ParseError):
        parse_poly("x *", R)


def test_fraction_coefficients_roundtrip():
    # printer-compatibility extension: INT/INT in coefficient position
    p = parse_poly("1/2*x + 3", R)
    assert parse_poly(str(p), R) == p


def test_repeated_products_and_powers():
    p = parse_poly("2*x*x*y^2", R)
    assert p == parse_poly("2*x^2*y^2", R)


def test_fixed_point_of_print_parse():
    sources = ["x^2*y - 3*y + 1", "0", "-x", "x*y - x*y", "7 - x^3"]
    for src in sources:
        once = parse_poly(src, R)
        assert parse_poly(str(once), R) == once


@pytest.mark.parametrize("source, position", [("1/0*x", 2), ("x + 3/00", 6), ("(0/0)", 3)])
def test_zero_denominator_names_its_position(source, position):
    with pytest.raises(ParseError, match="zero denominator") as exc:
        parse_poly(source, R)
    assert exc.value.position == position


@pytest.mark.parametrize("exponent", [40000, 10**27])
def test_power_past_degree_limit_names_its_degree(exponent):
    with pytest.raises(DegreeOverflowError) as exc:
        parse_poly(f"x^{exponent}", R)
    assert f"total degree {exponent} " in str(exc.value)
    assert "32767" in str(exc.value)


# int() refuses a decimal string longer than sys.get_int_max_str_digits(),
# 4300 by default, on every Python that has the cap.
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "9" * 5000


@pytest.mark.skipif(not 0 < _INT_DIGITS < len(LONG), reason="no cap on int() below 5000 digits")
@pytest.mark.parametrize(
    "source, position",
    [(LONG + "*x", 0), ("x^" + LONG, 2), ("y - 1/" + LONG, 6)],
    ids=["coefficient", "exponent", "denominator"],
)
def test_overlong_integer_names_its_position(source, position):
    with pytest.raises(ParseError, match="integer of 5000 digits is too long") as exc:
        parse_poly(source, R)
    assert exc.value.position == position


@pytest.mark.parametrize(
    "source, position",
    [("x^²", 2), ("٣*x", 0), ("12٣*x", 2), ("x²", 1)],
    ids=["superscript-two", "arabic-indic-three", "after-ascii-digits", "in-a-name"],
)
def test_non_ascii_digit_is_an_unexpected_character(source, position):
    # INT is [0-9]+: str.isdigit would read U+0663 as 3 and U+00B2 as a
    # digit that int() then refuses. VAR is ASCII too, so x² is x, then ².
    with pytest.raises(ParseError, match="unexpected character '[²٣]'") as exc:
        parse_poly(source, R)
    assert exc.value.position == position

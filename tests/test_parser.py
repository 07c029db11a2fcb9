"""Parser grammar conformance and error reporting."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resint import ParseError, Polynomial, Ring, UnknownVariableError, parse_poly
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


# -- sums built in one dict -------------------------------------------------------

R3 = Ring(["x", "y", "z"])


def _product(factors):
    source = "*".join(f for f, _ in factors)
    ref = factors[0][1]
    for _, p in factors[1:]:
        ref = ref * p
    return source, ref


def _add_up(case):
    """A sum as (source, reference), the reference added up left to right
    by Polynomial arithmetic, as the grammar associates.  When asked, it
    ends by cancelling its first term."""
    items, cancel = case
    if cancel:
        items = items + [("-" if items[0][0] == "+" else "+", items[0][1])]
    source, ref = "", None
    for i, (sign, (src, p)) in enumerate(items):
        p = p if sign == "+" else -p
        source += (sign if i or sign == "-" else "") + src
        ref = p if ref is None else ref + p
    return source, ref


def _sums(factors):
    terms = st.lists(factors, min_size=1, max_size=3).map(_product)
    signed = st.lists(st.tuples(st.sampled_from("+-"), terms), min_size=1, max_size=4)
    return st.tuples(signed, st.booleans()).map(_add_up)


_number = st.one_of(
    st.integers(0, 4).map(lambda n: (str(n), R3.constant(n))),
    st.tuples(st.integers(0, 9), st.integers(1, 9)).map(
        lambda t: (f"{t[0]}/{t[1]}", R3.constant(Fraction(*t)))
    ),
)
# Exponents past 127, and their products, take the 16-bit packing.
_power = st.tuples(st.sampled_from("xyz"), st.one_of(st.none(), st.integers(0, 200))).map(
    lambda t: (t[0], R3.var(t[0])) if t[1] is None else (f"{t[0]}^{t[1]}", R3.var(t[0]) ** t[1])
)
_factor = st.recursive(
    st.one_of(_number, _power),
    lambda inner: _sums(inner).map(lambda s: (f"({s[0]})", s[1])),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(case=_sums(_factor))
def test_parse_equals_polynomial_arithmetic(case):
    """Monomial terms, x*x^2 among them, are summed in one dict; products
    of parenthesised sums, rational coefficients, cancelling terms and
    degrees past 127 give what Polynomial arithmetic gives."""
    source, ref = case
    assert parse_poly(source, R3) == ref


@pytest.mark.parametrize(
    "source, error",
    [
        ("x + * y", "expected a factor, found '*' (at position 4)"),
        ("x*", "expected a factor, found '' (at position 2)"),
        ("+x - -y", "expected a factor, found '-' (at position 5)"),
        ("2^3", "unexpected trailing '^' (at position 1)"),
        ("(x + y)^2", "unexpected trailing '^' (at position 7)"),
        ("(x + y", "expected ')', found '' (at position 6)"),
        ("x^", "expected 'int', found '' (at position 2)"),
        ("x^20000*y^20000", "total degree 40000 exceeds the limit of 32767"),
        ("x^20000*y^20000 - x^20000*y^20000", "total degree 40000 exceeds the limit of 32767"),
        ("2*x^40000", "total degree 40000 exceeds the limit of 32767"),
        # A power is refused on its own, even after a zero factor.
        ("0*x^40000", "total degree 40000 exceeds the limit of 32767"),
        ("(x + 1)*x^40000", "total degree 40000 exceeds the limit of 32767"),
        ("x^16000*(x^16000 + y)*x^1000", "total degree 33000 exceeds the limit of 32767"),
    ],
)
def test_errors_keep_message_and_position(source, error):
    with pytest.raises(ParseError if "position" in error else DegreeOverflowError) as exc:
        parse_poly(source, R)
    assert str(exc.value) == error


def test_unknown_variable_keeps_message_and_position():
    with pytest.raises(UnknownVariableError) as exc:
        parse_poly("x + w", R)
    assert str(exc.value) == "unknown variable 'w' (at position 4)"


@pytest.mark.parametrize("source", ["0*x^20000*x^20000", "x*(0)*x^20000*x^20000"])
def test_a_zero_product_refuses_no_degree(source):
    # A product with a zero factor is zero before its degree adds up.
    assert parse_poly(source, R).is_zero()


def test_a_flat_sum_adds_no_polynomials(monkeypatch):
    source = "".join(f" {'+-'[i % 2]} {i % 7}*x^{i % 60}*y^{i // 60}" for i in range(3000))
    calls = [0]
    add = Polynomial.__add__

    def counted(self, other):
        calls[0] += 1
        return add(self, other)

    monkeypatch.setattr(Polynomial, "__add__", counted)
    p = parse_poly(source, R)
    assert calls[0] == 0
    assert len(p.terms) == sum(1 for i in range(3000) if i % 7)

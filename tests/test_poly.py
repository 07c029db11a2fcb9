"""Core polynomial arithmetic, monomial orders, and printing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resint import (
    BlockElim,
    GrevLex,
    Lex,
    Polynomial,
    PolyError,
    Ring,
    RingMismatchError,
    order_from_tag,
    parse_poly,
)
from resint.poly import euler_pairing


def test_lex_prefers_earlier_variable():
    # x vs y^2 in [x, y]
    assert Lex().key((1, 0)) > Lex().key((0, 2))


def test_grevlex_same_degree_tiebreak():
    # x*y vs x^2: same degree, reverse-lex tiebreak
    assert GrevLex().key((1, 1)) < GrevLex().key((2, 0))


def test_block_elim_front_variable_dominates():
    # t vs x^5*y^5 in [t, x, y] with front = {t}
    assert BlockElim(1).key((1, 0, 0)) > BlockElim(1).key((0, 5, 5))


ORDERS = [Lex(), GrevLex(), BlockElim(3)]

mono = st.lists(st.integers(min_value=0, max_value=6), min_size=8, max_size=8).map(tuple)


@settings(max_examples=200, deadline=None)
@given(a=mono, b=mono, c=mono, order=st.sampled_from(ORDERS))
def test_order_laws(a, b, c, order):
    ka, kb, kc = order.key(a), order.key(b), order.key(c)
    # equal keys exactly on equal exponent vectors
    assert (ka == kb) == (a == b)
    # transitivity
    if ka <= kb <= kc:
        assert ka <= kc
    # refines divisibility
    if all(x <= y for x, y in zip(a, b)) and a != b:
        assert ka < kb


@pytest.mark.parametrize("order", ORDERS, ids=repr)
def test_order_is_an_immutable_value(order):
    twin = order_from_tag(order.tag)
    assert twin is not order
    assert twin == order
    assert hash(twin) == hash(order)
    for field in ("front", "tag", "other"):
        with pytest.raises(AttributeError):
            setattr(order, field, 5)
        with pytest.raises(AttributeError):
            delattr(order, field)
    assert order == twin
    assert repr(order) == {
        "lex": "Lex()",
        "grevlex": "GrevLex()",
        "block:3": "BlockElim(front=3)",
    }[order.tag]


def test_orders_of_other_type_or_fields_differ():
    assert Lex() != GrevLex()
    assert GrevLex() != BlockElim(0)
    assert BlockElim(1) != BlockElim(2)
    assert BlockElim(1) == BlockElim(1)
    assert len({Lex(), GrevLex(), BlockElim(0), BlockElim(1), BlockElim(2)}) == 5


@pytest.mark.parametrize("front", [-1, True], ids=repr)
def test_block_front_must_be_a_non_negative_int(front):
    # BlockElim(-1) would give n + 1 weight rows, and its keys would decode
    # to the wrong exponents.
    with pytest.raises(ValueError):
        BlockElim(front)


@st.composite
def polys(draw, ring):
    n = ring.arity
    terms = draw(
        st.dictionaries(
            st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n).map(tuple),
            st.integers(min_value=-9, max_value=9).map(Fraction),
            max_size=6,
        )
    )
    return Polynomial(ring, terms)


RING3 = Ring(["x", "y", "z"])


@settings(max_examples=150, deadline=None)
@given(p=polys(RING3), q=polys(RING3), r=polys(RING3))
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + RING3.zero() == p
    assert p * RING3.one() == p
    assert (p - p).is_zero()


@settings(max_examples=150, deadline=None)
@given(p=polys(RING3))
def test_print_parse_roundtrip(p):
    assert parse_poly(str(p), RING3) == p


def test_canonical_terms_strictly_descending():
    p = parse_poly("y + x^2 + x*y + 1", RING3)
    keys = [RING3.order.key(m) for m, _ in p.terms]
    assert keys == sorted(keys, reverse=True)
    assert all(c != 0 for _, c in p.terms)


def test_same_expression_two_parse_trees():
    a = parse_poly("(x + y)*(x - y)", RING3)
    b = parse_poly("x^2 - y^2", RING3)
    assert a.terms == b.terms


def test_add_mul_scale_examples():
    R = Ring(["x", "y"])
    x, y = R.var("x"), R.var("y")
    assert (x + y) + (-y) == x
    assert (x - y) * (x + y) == parse_poly("x^2 - y^2", R)
    assert x.scale(0).is_zero()


def test_ring_mismatch_raises():
    R1, R2 = Ring(["x", "y"]), Ring(["x", "z"])
    with pytest.raises(RingMismatchError):
        R1.var("x") + R2.var("x")


def test_derivative_examples():
    R = Ring(["x", "y"])
    assert parse_poly("x^2*y", R).derivative("x") == parse_poly("2*x*y", R)
    assert parse_poly("y^3", R).derivative("x").is_zero()


def test_euler_identity_homogeneous():
    R = Ring(["x", "y", "z"])
    p = parse_poly("x^2*y - 3*x*y*z + z^3", R)
    assert euler_pairing(p) == p.scale(3)


def test_scale_by_rational():
    R = Ring(["x"])
    p = parse_poly("2*x", R).scale(Fraction(1, 2))
    assert p == R.var("x")
    assert parse_poly(str(p.scale(Fraction(1, 3))), R) == p.scale(Fraction(1, 3))


def test_duplicate_variables_rejected():
    with pytest.raises(PolyError):
        Ring(["x", "x"])


@pytest.mark.parametrize("name", ["", "1x", "x y", "x²", "é"])
def test_variable_name_outside_the_ascii_name_rule_rejected(name):
    with pytest.raises(PolyError, match="invalid variable name"):
        Ring([name])


def test_random_exact_arithmetic_no_rounding():
    rng = random.Random(7)
    R = Ring(["a", "b"])
    for _ in range(50):
        coeffs = {
            (rng.randrange(4), rng.randrange(4)): Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
            for _ in range(4)
        }
        p = Polynomial(R, coeffs)
        q = p.scale(Fraction(3, 7))
        assert q.scale(Fraction(7, 3)) == p

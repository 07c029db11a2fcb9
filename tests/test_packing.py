"""The engine's packed monomials, checked against the tuple monomial ops.

A packed monomial must round-trip, sort like its order's key, multiply by
int addition and test divisibility by one guard mask, for every arity the
bundled datasets use and for exponents up to the engine's degree limit.
Monomials at or past the limit must raise rather than wrap.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resint import BlockElim, GrevLex, Ideal, Lex, Ring, groebner_basis, normal_form
from resint.groebner import DEGREE_LIMIT, GroebnerError, _packer
from resint.poly import mon_divides, mon_lcm, mon_mul

# Small exponents make ties and divisibility common; large ones reach the limit.
exponent = st.one_of(st.integers(0, 3), st.integers(0, DEGREE_LIMIT - 1))


@st.composite
def order_and_arity(draw):
    n = draw(st.integers(1, 30))
    order = draw(
        st.sampled_from([Lex(), GrevLex()]) | st.integers(0, n).map(BlockElim)
    )
    return order, n


def _capped(*ms):
    """Scale monomials down so that their degrees sum to below the limit."""
    total = sum(sum(m) for m in ms)
    if total < DEGREE_LIMIT:
        return ms
    return tuple(tuple(e * (DEGREE_LIMIT - 1) // total for e in m) for m in ms)


def _monomials(data, n, count):
    mono = st.lists(exponent, min_size=n, max_size=n).map(tuple)
    return [_capped(data.draw(mono))[0] for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(case=order_and_arity(), data=st.data())
def test_pack_roundtrips_and_sorts_like_order_key(case, data):
    order, n = case
    p = _packer(order, n)
    ms = _monomials(data, n, data.draw(st.integers(1, 8)))
    for m in ms:
        assert p.dec(p.enc(m)) == m
    assert sorted(ms, key=p.enc) == sorted(ms, key=order.key)


@settings(max_examples=200, deadline=None)
@given(case=order_and_arity(), data=st.data())
def test_pack_multiply_lcm_and_divisibility(case, data):
    order, n = case
    p = _packer(order, n)
    a, c = _capped(*_monomials(data, n, 2))
    b = mon_mul(a, c) if data.draw(st.booleans()) else _monomials(data, n, 1)[0]
    ea, eb, ec = p.enc(a), p.enc(b), p.enc(c)
    assert ea + ec == p.enc(mon_mul(a, c))
    assert (not (eb - ea) & p.guard) == mon_divides(a, b)
    assert (not (ea - eb) & p.guard) == mon_divides(b, a)
    assert p.dec(p.lcm_exps(ea, eb)) == mon_lcm(a, b)


# -- the degree limit ------------------------------------------------------


def _lex_xy():
    return Ring(["x", "y"], Lex())


def test_generator_at_degree_limit_raises():
    R = _lex_xy()
    half = DEGREE_LIMIT // 2
    g = R.monomial((half, half)) - R.var("y")
    with pytest.raises(GroebnerError, match=str(DEGREE_LIMIT - 1)):
        groebner_basis(Ideal(R, [g]))
    with pytest.raises(GroebnerError, match=str(DEGREE_LIMIT - 1)):
        normal_form(R.var("x"), [g])
    with pytest.raises(GroebnerError, match=str(DEGREE_LIMIT - 1)):
        normal_form(g, groebner_basis(Ideal(R, [R.var("y")])))


def test_product_past_degree_limit_raises():
    R = _lex_xy()
    x = R.var("x")
    # The leading term of x - y^(limit-1) is x, so reducing x^2 by it, or the
    # S-polynomial of x^2 and it, produces x*y^(limit-1).
    g = x - R.monomial((0, DEGREE_LIMIT - 1))
    with pytest.raises(GroebnerError, match=str(DEGREE_LIMIT - 1)):
        normal_form(x * x, [g])
    with pytest.raises(GroebnerError, match=str(DEGREE_LIMIT - 1)):
        groebner_basis(Ideal(R, [x * x, g]))


def test_generator_just_below_degree_limit_is_reduced():
    R = _lex_xy()
    top = DEGREE_LIMIT - 1
    g = R.monomial((top, 0), 2) - R.monomial((1, top - 1)) + R.var("y")
    gb = groebner_basis(Ideal(R, [g]))
    assert gb.elements == (g.scale(Fraction(1, 2)),)
    assert normal_form(R.monomial((top, 0)), gb) == (g.scale(Fraction(-1, 2)) + R.monomial((top, 0)))

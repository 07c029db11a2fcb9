"""Polynomials crossing the engine boundary on packed keys.

Engine results become polynomials without a re-sort when the basis order is
the ring's order, ``intersect`` lifts into and strips ``t`` without one in a
grevlex ring, and ``exact_divide`` divides on packed keys.  Each must give
exactly the polynomial a fresh, sorting construction gives.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resint import (
    BlockElim,
    GrevLex,
    Ideal,
    Lex,
    Polynomial,
    PolyError,
    Ring,
    groebner_basis,
    intersect,
    normal_form,
    quotient,
)
from resint.groebner import exact_divide

ORDERS = [Lex(), GrevLex(), BlockElim(1), BlockElim(2)]


def _ring(order):
    return Ring(["x", "y", "z"], order)


def _polys(ring, max_terms, max_degree):
    mono = st.lists(st.integers(0, ring.arity - 1), max_size=max_degree).map(
        lambda factors: tuple(factors.count(i) for i in range(ring.arity))
    )
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    return st.dictionaries(mono, coeff, min_size=1, max_size=max_terms).map(
        lambda d: Polynomial(ring, d)
    )


def assert_canonical(p):
    """p equals, and hashes like, its terms rebuilt by the sorting path, and
    its stored keys are the packed keys of its terms."""
    fresh = Polynomial(p.ring, dict(p.terms))
    assert fresh == p
    assert hash(fresh) == hash(p)
    assert p._keys == tuple(p._packer.enc(m) for m, _ in p.terms)
    assert p._packer is p.ring.packer(p._packer.width)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.tag)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_divide_recovers_quotient(order, data):
    ring = _ring(order)
    f = data.draw(_polys(ring, 4, 3))
    q = data.draw(_polys(ring, 4, 3))
    got = exact_divide(f * q, f)
    assert got == q
    assert_canonical(got)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.tag)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_divide_rejects_non_multiples(order, data):
    ring = _ring(order)
    f = data.draw(_polys(ring, 4, 3))
    g = data.draw(_polys(ring, 4, 3))
    # f divides g exactly iff g reduces to zero modulo (f).
    if normal_form(g, groebner_basis(Ideal(ring, [f]))).is_zero():
        assert f * exact_divide(g, f) == g
    else:
        with pytest.raises(PolyError, match="not an exact multiple"):
            exact_divide(g, f)


def test_exact_divide_examples():
    R = Ring(["x", "y"], Lex())
    x, y = R.var("x"), R.var("y")
    # Under lex the running remainder of x^2 / (x - y^5) climbs in degree
    # before the non-multiple shows.
    with pytest.raises(PolyError, match="not an exact multiple"):
        exact_divide(x * x + y, x - y**5)
    assert exact_divide((x - y**5) * (x + Fraction(1, 3)), x - y**5) == x + Fraction(1, 3)
    assert exact_divide(R.zero(), x).is_zero()
    with pytest.raises(PolyError):
        exact_divide(x, R.zero())


@pytest.mark.parametrize("order", [GrevLex(), Lex()], ids=lambda o: o.tag)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_engine_outputs_are_canonical(order, data):
    ring = _ring(order)
    a = Ideal(ring, data.draw(st.lists(_polys(ring, 3, 2), min_size=1, max_size=3)))
    b = Ideal(ring, data.draw(st.lists(_polys(ring, 3, 2), min_size=1, max_size=2)))
    for p in groebner_basis(a).elements:
        assert_canonical(p)
    # A basis in another order than the ring's takes the sorting path.
    other = Lex() if order == GrevLex() else GrevLex()
    for p in groebner_basis(a, other).elements:
        assert_canonical(p)
    for p in intersect(a, b).generators:
        assert_canonical(p)
    for p in quotient(a, b).generators:
        assert_canonical(p)
    f = data.draw(_polys(ring, 4, 3))
    assert_canonical(normal_form(f, groebner_basis(a)))
    rem = normal_form(f, groebner_basis(a, other))
    assert_canonical(rem)
    # The same basis and remainder computed in a ring of the other order.
    twin = Ring(ring.variables, other)

    def move(p, target):
        return Polynomial(target, dict(p.terms))

    twin_basis = groebner_basis(Ideal(twin, [move(g, twin) for g in a.generators]))
    assert [move(p, ring) for p in twin_basis] == list(groebner_basis(a, other))
    assert move(normal_form(move(f, twin), twin_basis), ring) == rem
    assert move(normal_form(move(f, twin), list(twin_basis)), ring) == normal_form(
        f, list(groebner_basis(a, other)), other
    )


@pytest.mark.parametrize("order", [GrevLex(), Lex()], ids=lambda o: o.tag)
def test_trusted_constructions_are_sorted(order, monkeypatch):
    """Every polynomial built without a sort, by the engine, intersect,
    exact_divide or arithmetic, has its terms strictly descending."""
    trusted = Polynomial._sorted.__func__
    built = []

    def audited(cls, ring, terms, keys=None, pk=None):
        p = trusted(cls, ring, terms, keys, pk)
        built.append(p)
        return p

    monkeypatch.setattr(Polynomial, "_sorted", classmethod(audited))
    ring = _ring(order)
    x, y, z = ring.gens()
    a = Ideal(ring, [x * x - y * z, x * y * z - z**3 + 2, y**3 - x * z])
    b = Ideal(ring, [x + y + 1, y * z - x])
    intersect(a, b)
    quotient(a, b)
    groebner_basis(a, GrevLex() if order == Lex() else Lex())
    assert len(built) > 50
    for p in built:
        assert_canonical(p)


def test_arithmetic_keeps_keys():
    R = _ring(GrevLex())
    x, y, z = R.gens()
    p = (x + 2 * y - z) * (x - Fraction(1, 2) * z) ** 3 - y * z + 7
    for q in (p, -p, p.scale(3), p + (-p), p - x * x * x * x, p * p):
        assert_canonical(q)

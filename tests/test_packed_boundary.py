"""Polynomials in their stored form, and crossing the engine boundary on it.

A polynomial stores packed keys, integer numerators and one denominator, and
decodes its terms only when they are read.  Arithmetic works on that form,
engine results become polynomials without a re-sort, ``intersect`` lifts
into and strips ``t`` on keys in a grevlex ring, and ``quotient`` lifts into
and out of its y-ring on keys.  Each must give exactly the polynomial a
fresh, sorting construction gives.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resint import (
    BlockElim,
    is_member,
    parse_poly,
    GrevLex,
    Ideal,
    Lex,
    Polynomial,
    Ring,
    groebner_basis,
    ideals_equal,
    intersect,
    normal_form,
    order_from_tag,
    quotient,
)
from resint.poly import FIELD_WIDTHS, Packer, packer

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
    """p's stored form is canonical: keys strictly descending at the
    narrowest width that holds the degree, nonzero integer numerators over
    one positive denominator sharing no factor with them.  Its lazy terms
    decode that form, and p equals, and hashes like, those terms rebuilt by
    the sorting path."""
    keys, nums, den, pk = p._keys, p._nums, p._den, p._packer
    assert list(keys) == sorted(set(keys), reverse=True)
    assert len(nums) == len(keys)
    assert all(type(n) is int and n for n in nums)
    assert type(den) is int and den > 0 and gcd(den, *nums) == 1
    assert pk is p.ring.packer(pk.width)
    degree = max([sum(m) for m, _ in p.terms], default=0)
    assert pk.width == min(w for w in FIELD_WIDTHS if degree < 1 << (w - 1))
    assert p.terms == tuple((pk.dec(k), Fraction(n, den)) for k, n in zip(keys, nums))
    assert keys == tuple(pk.enc(m) for m, _ in p.terms)
    fresh = Polynomial(p.ring, dict(p.terms))
    assert fresh == p
    assert hash(fresh) == hash(p)
    assert (fresh._keys, fresh._nums, fresh._den) == (keys, nums, den)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.tag)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_principal_colon_is_the_cofactor(order, data):
    """(f*q) : (f) = (q): the colon by f divides exactly, on the y-ring's
    keys, in every order and homogeneous or not."""
    ring = _ring(order)
    f = data.draw(_polys(ring, 4, 3))
    q = data.draw(_polys(ring, 4, 3))
    colon = quotient(Ideal(ring, [f * q]), Ideal(ring, [f]))
    assert ideals_equal(colon, Ideal(ring, [q]))
    for p in colon.generators:
        assert_canonical(p)


@pytest.mark.parametrize("order", ORDERS, ids=repr)
def test_equal_orders_share_rings_and_packers(order):
    """An equal order built apart gives an equal ring, the same packers and
    polynomials that mix with the first ring's; a different order does not."""
    twin = order_from_tag(order.tag)
    assert twin is not order and twin == order and hash(twin) == hash(order)
    ring, twin_ring = _ring(order), _ring(twin)
    assert twin_ring == ring and hash(twin_ring) == hash(ring)
    for width in FIELD_WIDTHS:
        assert twin_ring.packer(width) is ring.packer(width)
    assert ring.var("x") + twin_ring.var("y") == parse_poly("x + y", ring)
    for other in ORDERS:
        if other is not order:
            assert other != order
            assert _ring(other) != ring
    assert repr(order) == {
        "lex": "Lex()",
        "grevlex": "GrevLex()",
        "block:1": "BlockElim(front=1)",
        "block:2": "BlockElim(front=2)",
    }[order.tag]


def test_packers_stay_shared_past_many_others():
    """A ring's packer is still shared after 160 other packers are built: a
    forgotten one would re-encode every key where two rings' polynomials meet."""
    first = Ring(["a", "b", "c"]).packer(8)
    for n in range(1, 41):
        for order in ORDERS:
            packer(order, n, FIELD_WIDTHS[-1])
    assert Ring(["a", "b", "c"]).packer(8) is first


@pytest.mark.parametrize("order", [GrevLex(), Lex()], ids=lambda o: o.tag)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_engine_outputs_are_canonical(order, data):
    ring = _ring(order)
    a = Ideal(ring, data.draw(st.lists(_polys(ring, 3, 2), min_size=1, max_size=3)))
    b = Ideal(ring, data.draw(st.lists(_polys(ring, 3, 2), min_size=1, max_size=2)))
    for p in groebner_basis(a).elements:
        assert_canonical(p)
    for p in intersect(a, b).generators:
        assert_canonical(p)
    for p in quotient(a, b).generators:
        assert_canonical(p)
    f = data.draw(_polys(ring, 4, 3))
    assert_canonical(normal_form(f, groebner_basis(a)))
    # A basis in the other order is the basis of a twin ring of that order:
    # canonical there, and generating the same ideal, with a remainder that
    # differs from f by a member.
    twin = Ring(ring.variables, Lex() if order == GrevLex() else GrevLex())

    def move(p, target):
        return Polynomial(target, dict(p.terms))

    twin_basis = groebner_basis(Ideal(twin, [move(g, twin) for g in a.generators]))
    for p in twin_basis.elements:
        assert_canonical(p)
    rem = normal_form(move(f, twin), twin_basis)
    assert_canonical(rem)
    assert ideals_equal(Ideal(ring, [move(p, ring) for p in twin_basis]), a)
    assert is_member(f - move(rem, ring), a)


@pytest.mark.parametrize("order", [GrevLex(), Lex()], ids=lambda o: o.tag)
def test_trusted_constructions_are_sorted(order, monkeypatch):
    """Every polynomial built from a stored form without a sort, by the
    engine, intersect, quotient or arithmetic, is canonical."""
    trusted = Polynomial._stored.__func__
    built = []

    def audited(cls, ring, keys, nums, den, pk):
        p = trusted(cls, ring, keys, nums, den, pk)
        built.append(p)
        return p

    monkeypatch.setattr(Polynomial, "_stored", classmethod(audited))
    ring = _ring(order)
    x, y, z = ring.gens()
    a = Ideal(ring, [x * x - y * z, x * y * z - z**3 + 2, y**3 - x * z])
    b = Ideal(ring, [x + y + 1, y * z - x])
    intersect(a, b)
    quotient(a, b)
    twin = Ring(ring.variables, GrevLex() if order == Lex() else Lex())
    groebner_basis(Ideal(twin, [Polynomial(twin, dict(g.terms)) for g in a.generators]))
    assert len(built) > 50
    for p in built:
        assert_canonical(p)


def test_arithmetic_keeps_keys():
    R = _ring(GrevLex())
    x, y, z = R.gens()
    p = (x + 2 * y - z) * (x - Fraction(1, 2) * z) ** 3 - y * z + 7
    for q in (p, -p, p.scale(3), p + (-p), p - x * x * x * x, p * p):
        assert_canonical(q)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.tag)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stored_form_is_canonical(order, data):
    ring = _ring(order)
    f = data.draw(_polys(ring, 4, 3))
    g = data.draw(_polys(ring, 4, 3))
    c = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool))
    cancelled = (f + g) + (-f)  # every term of f cancels
    assert cancelled == g
    assert (f - f.scale(c)) == f.scale(1 - c)
    assert (f + f.scale(-1)).is_zero()
    assert (f.scale(c) == f) == (c == 1)
    parsed = parse_poly(str(f), ring)
    assert parsed == f
    product = f * g
    small = Ideal(ring, [data.draw(_polys(ring, 3, 2)), data.draw(_polys(ring, 2, 2))])
    other = Ideal(ring, [data.draw(_polys(ring, 2, 2))])
    basis = groebner_basis(small)
    for p in (
        f + g,
        cancelled,
        f - g,
        product,
        f.scale(c),
        -f,
        parsed,
        normal_form(f, basis),
        *basis,
        *intersect(small, other).generators,
    ):
        assert_canonical(p)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.tag)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_width_is_canonical_after_cancellation(order, data):
    """A sum packed at 16 bits whose high-degree terms cancel equals, and
    hashes like, the same polynomial built at the narrowest width."""
    ring = _ring(order)
    f = data.draw(_polys(ring, 4, 3))
    high = data.draw(st.integers(1 << 7, (1 << 15) - 8))
    big = Polynomial(ring, {(high, 0, 1): 2, (1, high, 0): Fraction(-1, 3)})
    wide = f + big
    assert wide._packer.width == 16
    narrow = Polynomial(ring, dict(f.terms))
    assert narrow._packer.width == FIELD_WIDTHS[0]
    for s in (wide - big, wide + big.scale(-1), (big + f) - big):
        assert s == narrow
        assert hash(s) == hash(narrow)
        assert_canonical(s)
    assert (wide * f - big * f) == narrow * f


def test_product_then_membership_never_decodes(monkeypatch):
    """Parsing, products, a basis and membership tests all stay packed."""

    def refuse(self, key):
        raise AssertionError("a packed key was decoded")

    monkeypatch.setattr(Packer, "dec", refuse)
    ring = Ring(["x", "y", "z", "w"], GrevLex())
    A = Ideal(ring, [parse_poly(s, ring) for s in ("x*y - z*w", "x^2 - 1/2*y*w", "z^2 - y*w")])
    K = [parse_poly(s, ring) for s in ("x + y", "2/3*z - w")]
    I = [parse_poly(s, ring) for s in ("x*y - z*w", "y*z + x")]
    verdicts = [is_member(r * g, A) for r in K for g in I]
    assert verdicts == [True, False, True, False]

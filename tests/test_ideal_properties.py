"""Defining invariants of the ideal operations on small random ideals.

For ideals a, b, c: a ∩ b lies in a and in b, (a : b) * b lies in a, and a
lies in a : b.  Containment is tested generator by generator with
``is_member``.  The colon also obeys (a : b) : c = a : bc and
a : (b + c) = (a : b) ∩ (a : c), and a : b is the unit ideal exactly when b
lies in a.  In lex, grevlex and block rings, with inhomogeneous and
constant generators, and with homogeneous ones, ``quotient`` agrees with
the plain per-generator route (1/f)(a ∩ (f)) that neither skips a generator
nor orders the fold.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from resint import (
    Ideal,
    Polynomial,
    Ring,
    groebner_basis,
    ideals_equal,
    intersect,
    is_member,
    order_from_tag,
    quotient,
)
from resint.poly import mon_div

RING = Ring(["x", "y", "z"])
ONE = Polynomial(RING, {(0, 0, 0): Fraction(1)})


def _monomial():
    """Exponent tuples of total degree 1 or 2, one variable index per factor."""
    return st.lists(st.integers(0, 2), min_size=1, max_size=2).map(
        lambda factors: tuple(factors.count(i) for i in range(3))
    )


_generator = st.dictionaries(
    _monomial(), st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=3
).map(lambda d: Polynomial(RING, {m: Fraction(c) for m, c in d.items()}))

ideals = st.lists(_generator, min_size=1, max_size=3).map(lambda gs: Ideal(RING, gs))


def _contained(small, big):
    return all(is_member(g, big) for g in small.generators)


def _product(a, b):
    return Ideal(RING, [f * g for f in a.generators for g in b.generators])


@settings(max_examples=100, deadline=None)
@given(a=ideals, b=ideals)
def test_intersection_lies_in_both(a, b):
    both = intersect(a, b)
    assert _contained(both, a)
    assert _contained(both, b)


@settings(max_examples=100, deadline=None)
@given(a=ideals, b=ideals)
def test_colon_times_divisor_lies_in_ideal_and_contains_it(a, b):
    colon = quotient(a, b)
    assert _contained(a, colon)
    assert _contained(_product(colon, b), a)


@settings(max_examples=100, deadline=None)
@given(a=ideals, b=ideals, c=ideals)
def test_colon_by_a_product_is_an_iterated_colon(a, b, c):
    assert ideals_equal(quotient(quotient(a, b), c), quotient(a, _product(b, c)))


@settings(max_examples=100, deadline=None)
@given(a=ideals, b=ideals, c=ideals)
def test_colon_by_a_sum_is_the_intersection_of_colons(a, b, c):
    colon = quotient(a, Ideal(RING, b.generators + c.generators))
    assert ideals_equal(colon, intersect(quotient(a, b), quotient(a, c)))


@settings(max_examples=100, deadline=None)
@given(a=ideals, b=ideals)
def test_colon_is_the_unit_ideal_exactly_when_the_divisor_lies_in_the_ideal(a, b):
    assert is_member(ONE, quotient(a, b)) == _contained(b, a)


def _ideals_in(ring):
    """Ideals of ring whose generators have terms of degree 0 to 2."""
    monomial = st.lists(st.integers(0, 2), max_size=2).map(
        lambda factors: tuple(factors.count(i) for i in range(3))
    )
    generator = st.dictionaries(
        monomial, st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=3
    ).map(lambda d: Polynomial(ring, {m: Fraction(c) for m, c in d.items()}))
    return st.lists(generator, min_size=1, max_size=3).map(lambda gs: Ideal(ring, gs))


def _homogeneous_ideals_in(ring):
    """Ideals of ring whose generators are homogeneous of degree 2 or 3."""

    def generator(degree):
        monomial = st.lists(st.integers(0, 2), min_size=degree, max_size=degree).map(
            lambda factors: tuple(factors.count(i) for i in range(3))
        )
        return st.dictionaries(
            monomial, st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=3
        ).map(lambda d: Polynomial(ring, {m: Fraction(c) for m, c in d.items()}))

    generators = st.lists(st.integers(2, 3).flatmap(generator), min_size=1, max_size=3)
    return generators.map(lambda gs: Ideal(ring, gs))


def _divide(g, f):
    """g / f by long division on leading terms, for f dividing g exactly; a
    leading term that f's does not divide raises on its negative exponent."""
    ring = g.ring
    lm, lc = f.terms[0]
    q = ring.zero()
    while not g.is_zero():
        m, c = g.terms[0]
        t = ring.monomial(mon_div(m, lm), c / lc)
        q, g = q + t, g - t * f
    return q


def _unskipped_quotient(a, b):
    """a : b as (1/f)(a ∩ (f)) for every generator f of b, a : c = a for a
    constant c, intersected in b's generator order."""
    ring = a.ring
    result = None
    for f in b.generators:
        if f.total_degree() == 0:
            part = a
        else:
            inter = intersect(a, Ideal(ring, [f]))
            part = Ideal(ring, [_divide(g, f) for g in inter.generators])
        result = part if result is None else intersect(result, part)
    return result


_ideal_pairs = st.sampled_from(
    [Ring(["x", "y", "z"], order_from_tag(tag)) for tag in ("grevlex", "lex", "block:1")]
).flatmap(
    lambda ring: st.one_of(
        st.tuples(_ideals_in(ring), _ideals_in(ring)),
        st.tuples(_homogeneous_ideals_in(ring), _homogeneous_ideals_in(ring)),
    )
)


@settings(max_examples=100, deadline=None)
@given(pair=_ideal_pairs)
def test_colon_agrees_with_the_unskipped_route(pair):
    a, b = pair
    colon = quotient(a, b)
    assert groebner_basis(colon).elements == groebner_basis(_unskipped_quotient(a, b)).elements
    assert groebner_basis(colon).is_unit == all(is_member(f, a) for f in b.generators)

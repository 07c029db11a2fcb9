"""Defining invariants of the ideal operations on small random ideals.

For ideals a, b, c: a ∩ b lies in a and in b, (a : b) * b lies in a, and a
lies in a : b.  Containment is tested generator by generator with
``is_member``.  The colon also obeys (a : b) : c = a : bc and
a : (b + c) = (a : b) ∩ (a : c), and a : b is the unit ideal exactly when b
lies in a.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from resint import (
    Ideal,
    Polynomial,
    Ring,
    ideals_equal,
    intersect,
    is_member,
    quotient,
)

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

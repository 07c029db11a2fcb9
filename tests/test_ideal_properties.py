"""Defining invariants of the ideal operations on small random ideals.

For ideals a, b: a ∩ b lies in a and in b, (a : b) * b lies in a, and a lies
in a : b.  Containment is tested generator by generator with ``is_member``.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from resint import Ideal, Polynomial, Ring, intersect, is_member, quotient

RING = Ring(["x", "y", "z"])


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
    products = Ideal(RING, [f * g for f in colon.generators for g in b.generators])
    assert _contained(products, a)

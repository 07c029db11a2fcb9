"""Defining invariants of the ideal operations on small random ideals.

For ideals a, b, c: a ∩ b lies in a and in b, (a : b) * b lies in a, and a
lies in a : b.  Containment is tested generator by generator with
``is_member``.  The colon also obeys (a : b) : c = a : bc and
a : (b + c) = (a : b) ∩ (a : c), and a : b is the unit ideal exactly when b
lies in a.  In lex, grevlex and block rings, with inhomogeneous and
constant generators, and with homogeneous ones, ``quotient`` agrees with
the plain per-generator route (1/f)(a ∩ (f)) that neither skips a generator
nor orders the fold.

Membership in an ideal with homogeneous generators advances its basis
computation only through the degree tested; it agrees with membership
against the complete basis, and resuming the computation redoes nothing.
``intersect`` in a grevlex ring hands back its result's reduced basis.

For homogeneous ideals, deciding a == I ∩ J from Hilbert numerators agrees
with comparing a to ``intersect(I, J)``.
"""

import contextlib
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from resint import (
    Ideal,
    Lex,
    Polynomial,
    Ring,
    groebner,
    groebner_basis,
    ideals_equal,
    intersect,
    is_member,
    normal_form,
    order_from_tag,
    quotient,
    verify,
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


# -- membership by a partial run ------------------------------------------------

RINGS4 = [
    Ring(["x", "y", "z", "w"], order_from_tag(tag)) for tag in ("lex", "grevlex", "block:1", "block:2")
]


def _forms(ring, degrees, min_terms=1):
    """Homogeneous polynomials of ring, of a degree drawn from `degrees`."""

    def of_degree(degree):
        monomial = st.lists(st.integers(0, ring.arity - 1), min_size=degree, max_size=degree).map(
            lambda factors: tuple(factors.count(i) for i in range(ring.arity))
        )
        return st.dictionaries(
            monomial, st.sampled_from([-2, -1, 1, 2]), min_size=min_terms, max_size=3
        ).map(lambda d: Polynomial(ring, {m: Fraction(c) for m, c in d.items()}))

    return st.sampled_from(degrees).flatmap(of_degree)


@st.composite
def _homogeneous_cases(draw):
    """A ring, homogeneous generators of degree 1 to 3, and polynomials to
    test: members (of one degree or several), others, and their sums."""
    ring = draw(st.sampled_from(RINGS4))
    gens = draw(st.lists(_forms(ring, (1, 2, 3)), min_size=1, max_size=3))
    multiples = st.tuples(_forms(ring, (0, 1, 2)), st.sampled_from(gens))
    members = st.lists(multiples, min_size=1, max_size=3).map(
        lambda pairs: sum((m * g for m, g in pairs), ring.zero())
    )
    others = _forms(ring, (1, 2, 3, 4, 5))
    tests = st.one_of(members, others, st.tuples(members, others).map(lambda t: t[0] + t[1]))
    return ring, gens, draw(st.lists(tests, min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(case=_homogeneous_cases())
def test_membership_by_a_partial_run_agrees_with_the_complete_basis(case):
    ring, gens, tests = case
    ideal = Ideal(ring, gens)
    reference = groebner_basis(Ideal(ring, gens))
    for f in tests:
        assert is_member(f, ideal) == normal_form(f, reference).is_zero()


@contextlib.contextmanager
def _counted_work():
    """Basis runs started, and the reduction steps inside them; the steps of
    membership normal forms, which use a state of their own, are left out."""
    runs = set()
    counts = {"runs": 0, "run steps": 0}
    step, buchberger = groebner._State.step, groebner._buchberger

    def counted_step(state):
        counts["run steps"] += state in runs
        step(state)

    def counted_buchberger(inputs, pk, state):
        runs.add(state)
        counts["runs"] += 1
        return buchberger(inputs, pk, state)

    groebner._State.step, groebner._buchberger = counted_step, counted_buchberger
    try:
        yield counts
    finally:
        groebner._State.step, groebner._buchberger = step, buchberger


# Binomials and trinomials of degree 2 and 3 leave pairs of degree 3 to 6.
_binomial_ideals = st.sampled_from(RINGS4).flatmap(
    lambda ring: st.tuples(st.just(ring), st.lists(_forms(ring, (2, 3), 2), min_size=2, max_size=3))
)


@settings(max_examples=100, deadline=None)
@given(case=_binomial_ideals, first=st.integers(1, 4), gap=st.integers(1, 3))
def test_resuming_a_run_redoes_nothing(case, first, gap):
    """is_member at degree d1, then at d2 > d1, then groebner_basis: one
    run, taking the steps of one fresh run to the same reduced basis."""
    ring, gens = case
    x = ring.var("x")
    ideal = Ideal(ring, gens)
    with _counted_work() as resumed:
        is_member(x**first, ideal)
        is_member(x ** (first + gap), ideal)
        basis = groebner_basis(ideal).elements
    with _counted_work() as fresh:
        assert groebner_basis(Ideal(ring, gens)).elements == basis
    assert resumed["runs"] == fresh["runs"] == 1
    assert resumed["run steps"] == fresh["run steps"]


# -- intersect hands back its basis ----------------------------------------------


@settings(max_examples=100, deadline=None)
@given(a=ideals, b=ideals)
def test_grevlex_intersection_hands_back_its_reduced_basis(a, b):
    both = intersect(a, b)
    assert both._gb.elements == groebner_basis(Ideal(RING, both.generators)).elements


def test_lex_intersection_caches_no_basis():
    ring = Ring(["x", "y", "z"], Lex())
    both = intersect(Ideal(ring, ["x*y", "z"]), Ideal(ring, ["y^2"]))
    assert both._gb is None
    assert ideals_equal(both, Ideal(ring, ["x*y^2", "y^2*z"]))


# -- a == I ∩ J from Hilbert numerators ------------------------------------------


@st.composite
def _intersection_cases(draw):
    """Homogeneous I and J in 3 or 4 variables, and a: I ∩ J's generators, one
    of them dropped, one times a variable, or a homogeneous ideal of its own."""
    ring = draw(st.sampled_from([RING] + RINGS4))
    I, J = (
        Ideal(ring, draw(st.lists(_forms(ring, (1, 2, 3)), min_size=1, max_size=3)))
        for _ in range(2)
    )
    gens = list(intersect(I, J).generators)
    how = draw(st.sampled_from(["exact", "dropped", "times-variable", "other"]))
    if how == "dropped":
        del gens[draw(st.integers(0, len(gens) - 1))]
    elif how == "times-variable":
        i = draw(st.integers(0, len(gens) - 1))
        gens[i] *= ring.var(draw(st.sampled_from(ring.variables)))
    elif how == "other":
        gens = draw(st.lists(_forms(ring, (2, 3, 4)), min_size=1, max_size=3))
    return Ideal(ring, gens), I, J


@settings(max_examples=100, deadline=None)
@given(case=_intersection_cases())
def test_hilbert_route_agrees_with_the_intersection(case):
    a, I, J = case
    assert all(g.is_homogeneous() for X in case for g in X.generators)
    assert verify._intersection_equals({}, a, I, J) == ideals_equal(a, intersect(I, J))

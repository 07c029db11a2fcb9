"""Differential oracle: reduced Groebner bases against SymPy's.

Reduced bases are unique per (ideal, monomial order), so the engine's basis,
made monic, must equal the monic reduced basis ``sympy.groebner`` returns.
Ideals are small (at most 4 variables, degree at most 3) and mix monomial,
binomial and general generators, so that many S-pairs share an lcm and the
pair update's equal-lcm and coprime pruning is exercised; a second strategy
multiplies some of them by one shared monomial, so that many pairs have
leading monomials that meet only in that factor: not coprime, so they are
reduced.  Skipped when SymPy is not installed; the package itself does not
depend on it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resint import GrevLex, Ideal, Lex, Polynomial, Ring, groebner_basis

sympy = pytest.importorskip("sympy")

ORDERS = {"lex": Lex(), "grevlex": GrevLex()}


def _monomial(n):
    """Exponent tuples of total degree at most 3, one variable index per factor."""
    return st.lists(st.integers(0, n - 1), max_size=3).map(
        lambda factors: tuple(factors.count(i) for i in range(n))
    )


def _generator(n):
    mono = _monomial(n)
    coeff = st.integers(-3, 3).filter(bool)
    monomial = mono.map(lambda m: {m: 1})
    # Two equal monomials give a monomial generator, never a zero one.
    binomial = st.tuples(mono, mono, st.sampled_from([1, -1])).map(
        lambda t: {t[0]: 1} if t[0] == t[1] else {t[0]: 1, t[1]: t[2]}
    )
    general = st.dictionaries(mono, coeff, min_size=1, max_size=4)
    return st.one_of(monomial, binomial, general)


@st.composite
def ideals(draw):
    n = draw(st.integers(1, 4))
    gens = draw(st.lists(_generator(n), min_size=1, max_size=4))
    return n, draw(st.sampled_from(sorted(ORDERS))), gens


@st.composite
def shared_factor_ideals(draw):
    """Ideals some of whose generators are multiplied by one shared monomial
    of degree 1 or 2, so that many pairs have leading monomials that meet
    only in that factor, which the pair update does not count as coprime."""
    n, order_name, gens = draw(ideals())
    shared = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2))
    shift = tuple(shared.count(i) for i in range(n))
    hit = draw(st.lists(st.booleans(), min_size=len(gens), max_size=len(gens)))
    gens = [
        {tuple(a + b for a, b in zip(m, shift)): c for m, c in g.items()} if h else g
        for g, h in zip(gens, hit)
    ]
    return n, order_name, gens


def _monic(terms, order):
    """{monomial: Fraction} scaled so the order's leading coefficient is 1."""
    lead = terms[max(terms, key=order.key)]
    return frozenset((m, Fraction(c) / lead) for m, c in terms.items())


def _sympy_basis(n, order_name, gens):
    xs = sympy.symbols(f"x0:{n}")
    # from_dict converts the coefficients of the dict it is given in place.
    polys = [sympy.Poly.from_dict(dict(g), *xs, domain="QQ") for g in gens]
    basis = sympy.groebner(polys, *xs, order=order_name, domain="QQ")
    order = ORDERS[order_name]
    return {
        _monic({m: Fraction(str(c)) for m, c in p.as_dict().items()}, order)
        for p in basis.polys
    }


def _engine_basis(n, order_name, gens):
    order = ORDERS[order_name]
    ring = Ring([f"x{i}" for i in range(n)], order)
    ideal = Ideal(ring, [Polynomial(ring, {m: Fraction(c) for m, c in g.items()}) for g in gens])
    return {_monic(dict(p.terms), order) for p in groebner_basis(ideal).elements}


@settings(max_examples=300, deadline=None)
@given(case=ideals())
def test_reduced_basis_matches_sympy(case):
    n, order_name, gens = case
    assert _engine_basis(n, order_name, gens) == _sympy_basis(n, order_name, gens)


@settings(max_examples=200, deadline=None)
@given(case=shared_factor_ideals())
def test_shared_factor_bases_match_sympy(case):
    n, order_name, gens = case
    assert _engine_basis(n, order_name, gens) == _sympy_basis(n, order_name, gens)


@pytest.mark.parametrize("order_name", sorted(ORDERS))
@pytest.mark.parametrize(
    "gens",
    [
        # Monomials and binomials in 3 variables: many pairs share an lcm.
        [{(1, 1, 0): 1}, {(0, 1, 1): 1}, {(1, 0, 1): 1}, {(2, 0, 0): 1, (0, 0, 2): -1}],
        [{(2, 0, 0): 1, (0, 1, 1): -1}, {(0, 2, 0): 1, (1, 0, 1): -1}, {(0, 0, 2): 1, (1, 1, 0): -1}],
        # The twisted cubic.
        [{(0, 2, 0, 0): 1, (1, 0, 1, 0): -1}, {(0, 1, 1, 0): 1, (1, 0, 0, 1): -1},
         {(0, 0, 2, 0): 1, (0, 1, 0, 1): -1}],
        # Interreduction under both orders reduces a tail by an element whose
        # leading coefficient stays 2 or 3 after content stripping, so the
        # leading term comes back as lc times the reduction's scale.
        [{(1, 1, 0): 2, (2, 0, 0): -1}, {(1, 0, 0): 3, (1, 1, 0): 2, (2, 0, 0): 3}],
        # gcd(lm h, lm g) = x: every term of one element has the factor x,
        # and the other element's tail term y does not, so the pair is
        # reduced.  The element with the term y enters second here, and
        # first in the next case.
        [{(1, 1, 0): 1, (1, 0, 1): 1}, {(1, 0, 2): 1, (0, 1, 0): 1}],
        [{(1, 2, 0): 1, (1, 0, 0): 1}, {(1, 0, 1): 1, (0, 1, 0): 1}],
        # A leading monomial inserted later reaches an earlier element's tail,
        # so interreduction reduces it: x^2 - y enters first and x^2 + y - 1
        # reduces to 2y - 1; under lex, y - z^2 enters after x - y.
        [{(2, 0): 1, (0, 1): -1}, {(2, 0): 1, (0, 1): 1, (0, 0): -1}],
        [{(1, 0, 0): 1, (0, 1, 0): -1}, {(0, 1, 0): 1, (0, 0, 2): -1}],
    ],
)
def test_known_ideals_match_sympy(order_name, gens):
    n = len(next(iter(gens[0])))
    assert _engine_basis(n, order_name, gens) == _sympy_basis(n, order_name, gens)

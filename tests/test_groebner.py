"""Groebner engine: normal forms, reduced bases, and the ideal calculus.

Every basis produced here is re-certified by reducing all S-polynomials to
zero through the public API, and the colon ideal is cross-checked against an
independent combinatorial oracle on monomial ideals.
"""

import contextvars
import random
from fractions import Fraction
from itertools import permutations

import pytest

from resint import (
    BudgetExceededError,
    GrevLex,
    Ideal,
    Lex,
    NonHomogeneousError,
    Polynomial,
    Ring,
    RingMismatchError,
    UnitIdealError,
    ZeroIdealDivisorError,
    codim,
    groebner_basis,
    hilbert_numerator,
    ideals_equal,
    intersect,
    is_member,
    max_reductions,
    min_generators,
    normal_form,
    order_from_tag,
    parse_poly,
    quotient,
)
from resint import groebner, verify
from resint.families import pluecker_gr2
from resint.groebner import GroebnerBasis, certify_basis, s_polynomial
from resint.poly import mon_div, mon_lcm


def mon_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mon_gcd(a, b):
    return tuple(map(min, a, b))


def assert_groebner_certificate(gb):
    assert certify_basis(gb)


# -- normal form -----------------------------------------------------------


def test_nf_examples():
    R = Ring(["x", "y"])
    x, y = R.var("x"), R.var("y")
    basis = groebner_basis(Ideal(R, [x]))
    assert normal_form(x * x, basis).is_zero()
    assert normal_form(x + y, basis) == y


def test_nf_of_generator_is_zero():
    # the Gr(2,4) quadric reduces to zero against itself
    names = [f"p_{s}{t}" for s in range(1, 5) for t in range(s + 1, 5)]
    R = Ring(names)
    rel = parse_poly("p_12*p_34 - p_13*p_24 + p_14*p_23", R)
    assert normal_form(rel, groebner_basis(Ideal(R, [rel]))).is_zero()


def test_nf_irreducible_against_basis():
    R = Ring(["x", "y"])
    gb = groebner_basis(Ideal(R, ["x^2 - y"]))
    r = normal_form(parse_poly("x^3", R), gb)
    lms = [g.leading_monomial() for g in gb]
    for m, _ in r.terms:
        assert not any(mon_divides(lm, m) for lm in lms)


def test_nf_exact_rational_remainder():
    R = Ring(["x", "y"])
    f = parse_poly("x^2", R).scale(Fraction(1, 2)) + R.var("y")
    r = normal_form(f, groebner_basis(Ideal(R, ["x^2 - y"])))
    assert r == R.var("y").scale(Fraction(3, 2))


def test_nf_scales_by_the_smallest_factor():
    # Against 2x - y every coefficient cancelled (4, then 8) is even, so no
    # scaling is needed: 4x^2 + 6xy = (2x + 4y)(2x - y) + 4y^2.
    R = Ring(["x", "y"])
    pk = R.packer()

    def items(source):
        return groebner._int_terms(parse_poly(source, R), pk)[1]

    reducer = groebner._epoly(parse_poly("2*x - y", R), pk)
    assert reducer.lc == 2
    rem, scale = groebner._nf(dict(items("4*x^2 + 6*x*y")), [reducer], pk, groebner._State(2))
    assert scale == 1
    assert rem == items("4*y^2")


def _bases_and_remainders(ring):
    """Reduced bases of ideals whose reducers keep leading coefficients
    other than 1 after content stripping (8 and 4 for the first), and
    normal forms against them, each computed afresh."""
    polys = ["x^3 + y^3", "x^2*y^2 + 5*x*y + 7", "6*x^4 - 9*y^3 + 12*x", "x^5*y + y^4"]
    out = []
    for gens in (["2*x*y - x^2", "3*x + 2*x*y + 3*x^2"], ["3*x^2 - 2*y", "5*x*y - 4"]):
        gb = groebner_basis(Ideal(ring, gens))
        out.append((gb.elements, [normal_form(parse_poly(f, ring), gb) for f in polys]))
    return out


@pytest.mark.parametrize("tag", ["lex", "grevlex"])
def test_content_strip_keeps_bases_and_normal_forms(tag, monkeypatch):
    # At one bit every scale above 1 takes out the content shared by the
    # working coefficients and the scale; the answers must not move.
    R = Ring(["x", "y"], order_from_tag(tag))
    expected = _bases_and_remainders(R)
    monkeypatch.setattr(groebner, "_STRIP_BITS", 1)
    assert _bases_and_remainders(R) == expected


# -- reduced bases ----------------------------------------------------------


def test_gb_simple_lex():
    R = Ring(["x", "y"], Lex())
    gb = groebner_basis(Ideal(R, ["x + y", "y"]))
    assert {str(g) for g in gb} == {"x", "y"}
    assert_groebner_certificate(gb)


def test_gb_already_reduced():
    R = Ring(["x", "y"])
    gb = groebner_basis(Ideal(R, ["x*y", "y^2"]))
    assert {str(g) for g in gb} == {"x*y", "y^2"}


def test_gb_unit_ideal():
    R = Ring(["x", "y"])
    gb = groebner_basis(Ideal(R, ["x", "x + 1"]))
    assert gb.is_unit
    assert [str(g) for g in gb] == ["1"]


def test_gb_zero_ideal():
    R = Ring(["x", "y"])
    assert len(groebner_basis(Ideal(R, []))) == 0


def test_certify_basis_rejects_a_non_basis():
    # S(x^2 - y, x*y - 1) = x - y^2 reduces to itself, not to zero.
    R = Ring(["x", "y"])
    gens = [parse_poly(f, R) for f in ("x^2 - y", "x*y - 1")]
    assert not certify_basis(GroebnerBasis(R, gens))
    assert certify_basis(groebner_basis(Ideal(R, gens)))


def test_gb_cached_per_order():
    R = Ring(["x", "y"])
    I = Ideal(R, ["x^2 - y", "x*y - 1"])
    assert groebner_basis(I) is groebner_basis(I)
    assert I._gb is groebner_basis(I)


def _random_ideal(rng, ring, ngens=3, nterms=3, deg=3):
    gens = []
    n = ring.arity
    for _ in range(ngens):
        coeffs = {}
        for _ in range(rng.randrange(1, nterms + 1)):
            m = [0] * n
            for _ in range(rng.randrange(deg + 1)):
                m[rng.randrange(n)] += 1
            coeffs[tuple(m)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        gens.append(Polynomial(ring, coeffs))
    return Ideal(ring, gens)


def _unimodular_recombination(rng, ideal):
    """Row-operate on the generators: same ideal, different presentation."""
    gens = list(ideal.generators)
    if len(gens) < 2:
        return Ideal(ideal.ring, gens)
    for _ in range(6):
        i, j = rng.sample(range(len(gens)), 2)
        c = rng.choice([-2, -1, 1, 2])
        gens[i] = gens[i] + gens[j].scale(c)
    rng.shuffle(gens)
    return Ideal(ideal.ring, gens)


def test_reduced_basis_unique_under_recombination():
    rng = random.Random(2024)
    vars5 = ["a", "b", "c", "d", "e"]
    for case in range(100):
        ring = Ring(vars5[: rng.randrange(2, 6)])
        I = _random_ideal(rng, ring)
        J = _unimodular_recombination(rng, I)
        assert groebner_basis(I).elements == groebner_basis(J).elements, f"case {case}"


def test_certificate_on_random_bases():
    rng = random.Random(11)
    for _ in range(10):
        ring = Ring(["a", "b", "c"])
        gb = groebner_basis(_random_ideal(rng, ring))
        assert_groebner_certificate(gb)


# -- membership and equality --------------------------------------------------


def test_membership_examples():
    R = Ring(["x", "y"])
    assert is_member(parse_poly("x*y", R), Ideal(R, ["x"]))
    assert not is_member(R.var("y"), Ideal(R, ["x"]))
    assert not is_member(R.var("x"), Ideal(R, []))


def test_membership_ring_mismatch_raises_before_computing():
    I = Ideal(Ring(["x", "y"]), ["x^2 - y", "x*y - 1"])
    with pytest.raises(RingMismatchError):
        is_member(Ring(["u", "v"]).var("u"), I)
    assert I._gb is None


# Each takes (x, u, I, J): x and I = (x^2 - y, x*y - 1) in k[x, y], u and
# J = (u*v - 1) in k[u, v].
_MIXED_RING_CALLS = {
    "is_member": lambda x, u, I, J: is_member(u, I),
    "Ideal": lambda x, u, I, J: Ideal(I.ring, [x, u]),
    "normal_form": lambda x, u, I, J: normal_form(u, GroebnerBasis(I.ring, [x])),
    "ideals_equal": lambda x, u, I, J: ideals_equal(I, J),
    "intersect": lambda x, u, I, J: intersect(I, J),
    "quotient": lambda x, u, I, J: quotient(I, J),
    "s_polynomial": lambda x, u, I, J: s_polynomial(x, u),
}


@pytest.mark.parametrize("name", sorted(_MIXED_RING_CALLS))
def test_ring_mismatch_raises_before_computing(name):
    R, S = Ring(["x", "y"]), Ring(["u", "v"])
    I, J = Ideal(R, ["x^2 - y", "x*y - 1"]), Ideal(S, ["u*v - 1"])
    with pytest.raises(RingMismatchError):
        _MIXED_RING_CALLS[name](R.var("x"), S.var("u"), I, J)
    assert I._gb is None and J._gb is None


def test_ideal_equality_examples():
    R = Ring(["x", "y"])
    assert ideals_equal(Ideal(R, ["x", "y"]), Ideal(R, ["y", "x + y"]))
    assert not ideals_equal(Ideal(R, ["x"]), Ideal(R, ["x^2"]))


def test_equality_verdict_order_independent():
    pairs = [
        (["x*y - z^2", "x^2"], ["x^2", "x*y - z^2", "x^3"]),
        (["x + y"], ["x - y"]),
    ]
    grevlex, lex = Ring(["x", "y", "z"], GrevLex()), Ring(["x", "y", "z"], Lex())
    for a, b in pairs:
        assert ideals_equal(Ideal(grevlex, a), Ideal(grevlex, b)) == ideals_equal(
            Ideal(lex, a), Ideal(lex, b)
        )


# -- input order -------------------------------------------------------------------


@pytest.fixture
def steps(monkeypatch):
    """A one-item list that counts the engine's reduction steps."""
    count = [0]
    step = groebner._State.step

    def counted(state):
        count[0] += 1
        step(state)

    monkeypatch.setattr(groebner._State, "step", counted)
    return count


def _gr26_K3():
    return pluecker_gr2(6).ideal_K(3)


def _gr26_K3_cap_p16():
    model = pluecker_gr2(6)
    p16 = model.ideal_I().generators[0]
    return model.ideal_K(3), lambda K: intersect(K, Ideal(K.ring, [p16])).generators


def _gr26_I_dividing_K3():
    model = pluecker_gr2(6)
    K = model.ideal_K(3)
    # A fresh K each time, so every run computes K's basis itself.
    return model.ideal_I(), lambda I: groebner_basis(quotient(Ideal(K.ring, K.generators), I)).elements


def _colon_by_three_parts():
    # No generator of b lies in a, and the colons by its three generators
    # take different steps, so the one that comes first sets the work.
    R = Ring(["x", "y", "z"])
    a = Ideal(R, ["x^3", "y*z"])
    return Ideal(R, ["y - z", "z - x", "y*z - x*y"]), lambda b: groebner_basis(
        quotient(Ideal(R, a.generators), b)
    ).elements


def _lex_cyclic():
    R = Ring(["x", "y", "z", "w"], Lex())
    I = Ideal(R, ["x + y + z + w", "x*y + y*z + z*w + w*x", "x*y*z + y*z*w + z*w*x + w*x*y",
                  "x*y*z*w - 1", "x^2 - y*w + 2*z"])
    return I, lambda I: groebner_basis(I).elements


@pytest.mark.parametrize(
    "case",
    [
        lambda: (_gr26_K3(), lambda I: groebner_basis(I).elements),
        _gr26_K3_cap_p16,
        _gr26_I_dividing_K3,
        _colon_by_three_parts,
        _lex_cyclic,
    ],
    ids=["gr26-K3-basis", "gr26-K3-cap-p16", "gr26-K3-colon-I", "colon-three-parts", "lex-cyclic4"],
)
def test_engine_work_independent_of_input_order(case, steps):
    """Inputs enter the engine in a canonical order, and ``quotient`` takes
    the divisor's generators in one, so every shuffle of the generators
    takes the same reduction steps to the same basis."""
    ideal, compute = case()
    rng = random.Random(5)
    counts, results = set(), set()
    for _ in range(8):
        gens = list(ideal.generators)
        rng.shuffle(gens)
        steps[0] = 0
        results.add(tuple(compute(Ideal(ideal.ring, gens))))
        counts.add(steps[0])
    assert len(counts) == 1, sorted(counts)
    assert len(results) == 1


def test_shared_factor_basis_is_factor_times_basis():
    """Multiplying every generator by the variable t multiplies the reduced
    basis by t: the basis of t*K_3 is t times K_3's."""
    K = _gr26_K3()
    ring = Ring(K.ring.variables + ("t",), K.ring.order)
    t = ring.var("t")
    gens = [Polynomial(ring, {m + (0,): c for m, c in g.terms}) for g in K.generators]
    plain, shared = (
        groebner_basis(Ideal(ring, gs)).elements for gs in (gens, [t * g for g in gens])
    )
    assert shared == tuple(t * g for g in plain)


@pytest.fixture
def interreduction_nf_calls(monkeypatch):
    """A one-item list that counts the normal forms ``_reduce_basis`` takes."""
    count = [0]
    reduce_basis, nf = groebner._reduce_basis, groebner._nf
    inside = [False]

    def counted_reduce(*args):
        inside[0] = True
        try:
            return reduce_basis(*args)
        finally:
            inside[0] = False

    def counted_nf(*args):
        count[0] += inside[0]
        return nf(*args)

    monkeypatch.setattr(groebner, "_reduce_basis", counted_reduce)
    monkeypatch.setattr(groebner, "_nf", counted_nf)
    return count


def test_interreduction_reduces_only_reachable_tails(interreduction_nf_calls):
    """No leading monomial kept after an element divides its tail anywhere
    in (K_3) : (I) on Gr(2,6), so interreduction takes no normal form."""
    model = pluecker_gr2(6)
    K, I = model.ideal_K(3), model.ideal_I()
    assert ideals_equal(quotient(K, I), model.ideal_I_j(3))
    assert interreduction_nf_calls[0] == 0


# -- intersection, quotient -----------------------------------------------------

# A grevlex ring intersects on its own keys; every other order goes through
# its grevlex twin and back.
ORDER_TAGS = ["lex", "grevlex", "block:1", "block:2"]


def _in_ring(ideal, ring):
    return ideal.ring == ring and all(g.ring == ring for g in ideal.generators)


@pytest.mark.parametrize("tag", ORDER_TAGS)
def test_intersect_examples(tag):
    R = Ring(["x", "y"], order_from_tag(tag))
    K = intersect(Ideal(R, ["x"]), Ideal(R, ["y"]))
    assert _in_ring(K, R)
    assert ideals_equal(K, Ideal(R, ["x*y"]))
    assert ideals_equal(intersect(Ideal(R, ["x"]), Ideal(R, ["x"])), Ideal(R, ["x"]))
    assert intersect(Ideal(R, ["x"]), Ideal(R, [])).generators == ()


@pytest.mark.parametrize("tag", ORDER_TAGS)
def test_intersect_contracts_random(tag):
    rng = random.Random(5)
    R = Ring(["a", "b", "c"], order_from_tag(tag))
    for _ in range(10):
        I = _random_ideal(rng, R, ngens=2)
        J = _random_ideal(rng, R, ngens=2)
        K = intersect(I, J)
        assert _in_ring(K, R)
        for g in K.generators:
            assert is_member(g, I) and is_member(g, J)
        # sampled common elements land in the intersection
        for gi in I.generators:
            for gj in J.generators:
                assert is_member(gi * gj, K)


@pytest.mark.parametrize("tag", ORDER_TAGS)
def test_quotient_examples(tag):
    R = Ring(["x", "y", "z"], order_from_tag(tag))
    Q = quotient(Ideal(R, ["x*y"]), Ideal(R, ["y"]))
    assert _in_ring(Q, R)
    assert ideals_equal(Q, Ideal(R, ["x"]))
    assert ideals_equal(
        quotient(Ideal(R, ["x^2", "x*y"]), Ideal(R, ["x"])), Ideal(R, ["x", "y"])
    )
    assert ideals_equal(
        quotient(Ideal(R, ["x*z", "y*z^2"]), Ideal(R, ["z"])), Ideal(R, ["x", "y*z"])
    )
    for gens, by, want in (
        # Dividing the y-ring basis fully by y would give (y), the saturation.
        (["x^2*y"], ["x"], ["x*y"]),
        # v_y is the least y-exponent over all of an element's terms.
        (["x*z", "y*z^2"], ["x + y", "z^2"], ["x*z", "y*z^2"]),
        # The rewrite needs a power of f.
        (["x^2", "y^2"], ["x + y"], ["x - y", "y^2"]),
        # Inhomogeneous input is homogenized, and z = 1 set afterwards.
        (["x^2 - x"], ["x"], ["x - 1"]),
        # a : c = a for a nonzero constant c.
        (["x^2", "y*z - 1"], ["3"], ["x^2", "y*z - 1"]),
    ):
        colon = quotient(Ideal(R, gens), Ideal(R, by))
        assert _in_ring(colon, R)
        assert ideals_equal(colon, Ideal(R, want))


@pytest.mark.parametrize("tag", ["grevlex", "lex", "block:1"])
def test_intersect_and_quotient_with_t_taken(tag):
    # t and t_aux0 are the ring's own, so the elimination variable, and the
    # colon's y, is t_aux1, and the colon's z is t_aux2.
    R = Ring(["t", "x", "y", "t_aux0"], order_from_tag(tag))
    assert groebner._fresh_aux_name(R) == "t_aux1"
    assert groebner._fresh_aux_name(R, ("t_aux1",)) == "t_aux2"
    A, B = Ideal(R, ["t*x", "x*y"]), Ideal(R, ["t*y", "y^2"])
    K = intersect(A, B)
    assert _in_ring(K, R)
    assert ideals_equal(K, Ideal(R, ["t*x*y", "x*y^2"]))
    assert ideals_equal(quotient(A, B), Ideal(R, ["x"]))
    inhomogeneous = quotient(Ideal(R, ["t*x^2 - x", "t_aux0^2"]), Ideal(R, ["x"]))
    assert _in_ring(inhomogeneous, R)
    assert ideals_equal(inhomogeneous, Ideal(R, ["t*x - 1", "t_aux0^2"]))


@pytest.mark.parametrize("tag", ORDER_TAGS)
def test_quotient_is_the_unit_ideal_exactly_when_the_divisor_lies_in_the_ideal(tag):
    R = Ring(["x", "y", "z"], order_from_tag(tag))
    a = Ideal(R, ["x^2", "x*y - z"])
    unit = (R.one(),)
    assert quotient(a, Ideal(R, ["x^2*y", "x*y^2 - y*z", "x*z"])).generators == unit
    assert quotient(Ideal(R, ["x - 1", "2"]), Ideal(R, ["x", "3"])).generators == unit
    for b in (["x*z", "y"], ["3"], ["z + 1", "x^2*y"]):
        colon = quotient(a, Ideal(R, b))
        assert _in_ring(colon, R)
        assert not is_member(R.one(), colon)


@pytest.fixture
def colon_work(monkeypatch):
    """Two lists, the divisors f of the ``_colon_route`` colons a : f that
    ``quotient`` computes and the second ideals' generators of its
    ``intersect`` calls."""
    colons = []
    intersections = []
    route, intersect = groebner._colon_route, groebner.intersect

    def counted_route(a, homogeneous):
        colon = route(a, homogeneous)

        def counted(f):
            colons.append((f,))
            return colon(f)

        return counted

    def counted_intersect(a, b):
        intersections.append(b.generators)
        return intersect(a, b)

    monkeypatch.setattr(groebner, "_colon_route", counted_route)
    monkeypatch.setattr(groebner, "intersect", counted_intersect)
    return colons, intersections


def test_quotient_skips_divisor_generators_in_the_ideal(colon_work):
    """x*y lies in (x*y, x*z), so (x*y, x*z) : (x, x*y) takes the one colon
    of a by x and no fold."""
    colons, intersections = colon_work
    R = Ring(["x", "y", "z"])
    a = Ideal(R, ["x*y", "x*z"])
    assert [str(g) for g in groebner_basis(quotient(a, Ideal(R, ["x", "x*y"])))] == ["z", "y"]
    assert colons == [(R.var("x"),)]
    assert intersections == []


@pytest.mark.parametrize("tag", ORDER_TAGS)
@pytest.mark.parametrize(
    "gens, by, colons, folds",
    [
        # y comes first and a : y = a; a*x lies in a, so x is skipped.
        (["x^2 - y*z"], ["x", "y"], 1, 0),
        # a : y = (x*(x + 2*y)), and x^2*(x + 2*y) is not in a: x is folded.
        (["x^2*y + 2*x*y^2"], ["x", "y"], 2, 1),
        # After the fold R = a, whose one generator lies in a, so x + y is
        # skipped with no product and no third colon.
        (["x^2*y + 2*x*y^2"], ["x", "y", "x + y"], 2, 1),
    ],
    ids=["skipped", "folded", "skipped-after-fold"],
)
def test_quotient_folds_only_when_a_product_test_fails(tag, gens, by, colons, folds, colon_work):
    """A generator f of b is skipped when the colon R found so far has R*f
    in a; otherwise a : f is computed and intersected with R."""
    R = Ring(["x", "y", "z"], order_from_tag(tag))
    a = Ideal(R, gens)
    colon = quotient(a, Ideal(R, by))
    assert (len(colon_work[0]), len(colon_work[1])) == (colons, folds)
    assert _in_ring(colon, R)
    assert ideals_equal(colon, a)


@pytest.mark.parametrize("tag", ORDER_TAGS)
def test_gr26_colon_takes_one_colon_and_no_fold(tag, colon_work):
    """(K_5) : (I) = (I_5) on Gr(2,6): the first generator of I not in K_5
    gives the whole colon, and every later one passes the product test."""
    model = pluecker_gr2(6)
    ring = Ring(model.ring.variables, order_from_tag(tag))

    def moved(ideal):
        return Ideal(ring, [Polynomial(ring, dict(g.terms)) for g in ideal.generators])

    colon = quotient(moved(model.ideal_K(5)), moved(model.ideal_I()))
    assert (len(colon_work[0]), len(colon_work[1])) == (1, 0)
    assert _in_ring(colon, ring)
    assert ideals_equal(colon, moved(model.ideal_I_j(5)))


@pytest.mark.parametrize("j, outside, products", [(3, 3, 3), (4, 1, 2), (5, 0, 0)])
def test_gr26_product_test_multiplies_only_generators_outside_a(j, outside, products, monkeypatch):
    """In (K_j) : (I) on Gr(2,6) the product test multiplies a later f of I
    by R's generators that are neither generators nor members of K_j, and
    not by R's reduced basis (12, 15 and 16 elements); the count of
    product memberships does not depend on the order of the generators."""
    model = pluecker_gr2(6)
    route, member = groebner._colon_route, groebner.is_member
    for shuffle in range(4):
        rng = random.Random(shuffle)
        K, I = model.ideal_K(j), model.ideal_I()
        K = Ideal(K.ring, rng.sample(K.generators, len(K.generators)))
        I = Ideal(I.ring, rng.sample(I.generators, len(I.generators)))
        memberships, parts = [], []

        def counted_route(a, homogeneous):
            colon = route(a, homogeneous)

            def counted(f):
                part = colon(f)
                parts.extend(part)
                return part

            return counted

        def counted_member(f, ideal):
            memberships.append(f)
            return member(f, ideal)

        monkeypatch.setattr(groebner, "_colon_route", counted_route)
        monkeypatch.setattr(groebner, "is_member", counted_member)
        colon = quotient(K, I)
        monkeypatch.undo()
        # A product is a new polynomial; f and R's generators are passed as they are.
        known = I.generators + tuple(parts)
        multiplied = [p for p in memberships if not any(p is q for q in known)]
        factors = {g for p in multiplied for g in parts for f in I.generators if g * f == p}
        assert (len(factors), len(multiplied)) == (outside, products)
        assert not factors & set(K.generators)
        assert not any(is_member(g, K) for g in factors)
        assert ideals_equal(colon, model.ideal_I_j(j))


def test_lex_quotient_computes_no_lex_basis(monkeypatch):
    """Membership and elimination both run in the grevlex twin, so a lex
    ring's colon never computes a lex basis (some of which do not finish)."""
    orders = []
    inner = groebner.groebner_basis

    def recorded(ideal):
        orders.append(ideal.ring.order)
        return inner(ideal)

    monkeypatch.setattr(groebner, "groebner_basis", recorded)
    R = Ring(["x", "y", "z"], Lex())
    colon = quotient(Ideal(R, ["x*y", "x*z - y^2"]), Ideal(R, ["y", "x*y", "z^2 - 1"]))
    assert orders and Lex() not in orders
    monkeypatch.undo()
    assert _in_ring(colon, R)
    assert ideals_equal(colon, Ideal(R, ["x*y", "x*z - y^2", "y^3"]))


def test_quotient_by_zero_ideal_rejected():
    R = Ring(["x", "y"])
    with pytest.raises(ZeroIdealDivisorError):
        quotient(Ideal(R, ["x"]), Ideal(R, []))


def test_quotient_soundness_random():
    rng = random.Random(13)
    R = Ring(["a", "b", "c"])
    for _ in range(10):
        I = _random_ideal(rng, R, ngens=2)
        J = _random_ideal(rng, R, ngens=2)
        if not J.generators:
            continue
        Q = quotient(I, J)
        for r in Q.generators:
            for g in J.generators:
                assert is_member(r * g, I)


# -- independent oracle: colon of monomial ideals ------------------------------


def _monomial_colon_oracle(ring, gens_i, gens_j):
    """(m_1..m_k) : (f_1..f_l) combinatorially: intersect over f of
    (m_i / gcd(m_i, f)); monomial intersection via pairwise lcms."""

    def minimalize(mons):
        out = []
        for m in sorted(mons, key=sum):
            if not any(mon_divides(o, m) for o in out):
                out.append(m)
        return out

    result = None
    for f in gens_j:
        part = minimalize([mon_div(m, mon_gcd(m, f)) for m in gens_i])
        if result is None:
            result = part
        else:
            result = minimalize([mon_lcm(a, b) for a in result for b in part])
    return Ideal(ring, [Polynomial(ring, {m: 1}) for m in result])


def test_quotient_matches_monomial_oracle():
    rng = random.Random(99)
    for case in range(100):
        n = rng.randrange(2, 7)
        ring = Ring([f"v{i}" for i in range(n)])
        def rand_mon():
            m = [0] * n
            for _ in range(rng.randrange(1, 5)):
                m[rng.randrange(n)] += 1
            return tuple(m)
        gi = [rand_mon() for _ in range(rng.randrange(1, 9))]
        gj = [rand_mon() for _ in range(rng.randrange(1, 4))]
        I = Ideal(ring, [Polynomial(ring, {m: 1}) for m in gi])
        J = Ideal(ring, [Polynomial(ring, {m: 1}) for m in gj])
        expected = _monomial_colon_oracle(ring, gi, gj)
        assert ideals_equal(quotient(I, J), expected), f"case {case}"


# -- codimension ----------------------------------------------------------------


def test_codim_coordinate_subspace():
    R = Ring(["x1", "x2", "x3", "x4", "x5"])
    assert codim(Ideal(R, ["x1", "x2", "x3"])) == 3


def test_codim_zero_ideal():
    R = Ring(["x", "y"])
    assert codim(Ideal(R, [])) == 0


def test_codim_unit_ideal_rejected():
    R = Ring(["x"])
    with pytest.raises(UnitIdealError):
        codim(Ideal(R, ["1"]))


def test_codim_monotone_under_inclusion():
    rng = random.Random(3)
    R = Ring(["a", "b", "c", "d"])
    for _ in range(20):
        I = _random_ideal(rng, R, ngens=2, deg=2)
        J = Ideal(R, I.generators + _random_ideal(rng, R, ngens=1, deg=2).generators)
        if groebner_basis(I).is_unit or groebner_basis(J).is_unit:
            continue
        assert codim(I) <= codim(J)


def test_codim_stable_across_orders():
    gens = ["x*y - z^2", "y^2 - x*z"]
    assert codim(Ideal(Ring(["x", "y", "z"], GrevLex()), gens)) == codim(
        Ideal(Ring(["x", "y", "z"], Lex()), gens)
    )


# -- Hilbert numerators ---------------------------------------------------------


def _numerator_by_counting(ideal, top):
    """K(t) through degree `top`, from the number of monomials of each degree
    that no leading monomial of the ideal's basis divides, times (1 - t)^n;
    exact when K has no term past `top`."""
    n = ideal.ring.arity
    leads = groebner_basis(ideal).leading_monomials()
    counts = [0] * (top + 1)
    stack = [()]
    while stack:
        m = stack.pop()
        if len(m) < n:
            stack.extend(m + (e,) for e in range(top + 1 - sum(m)))
        elif not any(mon_divides(l, m) for l in leads):
            counts[sum(m)] += 1
    for _ in range(n):
        counts = [c - (counts[i - 1] if i else 0) for i, c in enumerate(counts)]
    while counts and not counts[-1]:
        counts.pop()
    return tuple(counts)


def test_hilbert_numerator_of_a_complete_intersection():
    R = Ring(["x", "y"])
    assert hilbert_numerator(Ideal(R, ["x^2", "y^2"])) == (1, 0, -2, 0, 1)


def test_hilbert_numerator_of_the_zero_and_the_unit_ideal():
    R = Ring(["x", "y", "z"])
    assert hilbert_numerator(Ideal(R, [])) == (1,)
    assert hilbert_numerator(Ideal(R, ["1"])) == ()


def test_hilbert_numerator_of_e6_a1_is_four_quadrics():
    a_1 = verify.load_scenario_file(verify.bundled_scenario_path("e6")).ideals["a_1"]
    assert hilbert_numerator(a_1) == (1, 0, -4, 0, 6, 0, -4, 0, 1)  # (1 - t^2)^4


@pytest.mark.parametrize(
    "gens",
    [
        ["x^2 + y*z", "x*y - z^2", "y^3"],
        ["x*z - y^2", "y*w - z^2", "x*w - y*z"],  # the twisted cubic
        ["x^2*y - z^3", "x*y*w + 2*z^2*w", "y^4 - w^4 + x*z^3"],
    ],
)
def test_hilbert_numerator_does_not_depend_on_the_order(gens):
    numerators = set()
    for tag in ORDER_TAGS:
        ideal = Ideal(Ring(["x", "y", "z", "w"], order_from_tag(tag)), gens)
        assert hilbert_numerator(ideal) == _numerator_by_counting(ideal, 12)
        numerators.add(hilbert_numerator(ideal))
    assert len(numerators) == 1


def test_hilbert_numerator_reads_16_bit_keys():
    R = Ring(["x", "y"])
    ideal = Ideal(R, ["x^130*y", "x*y^130", "x^66*y^66"])
    assert {p._packer.width for p in groebner_basis(ideal)} == {16}
    assert hilbert_numerator(ideal) == _numerator_by_counting(ideal, 200)


def test_hilbert_numerator_rejects_nonhomogeneous():
    with pytest.raises(NonHomogeneousError):
        hilbert_numerator(Ideal(Ring(["x", "y"]), ["x^2 - y"]))


# -- membership by a partial run ----------------------------------------------------

# Two homogeneous binomials whose reduced grevlex basis has an element every
# third degree from 40 to 136, so their run is partial below degree 136.  At
# 8 bits the advance to degree 127 forms a pair of degree 128.
_STAIRS = ["x^18*y^13*z^9 - x^12*y^12*z^16", "x^24*y^27*z^19 - x^21*y^24*z^25"]


@pytest.fixture
def runs(monkeypatch):
    """The number of inputs of each basis run started."""
    sizes = []
    buchberger = groebner._buchberger

    def recorded(inputs, pk, state):
        sizes.append(len(inputs))
        return buchberger(inputs, pk, state)

    monkeypatch.setattr(groebner, "_buchberger", recorded)
    return sizes


def _stairs():
    """The ideal, fresh, and its complete basis, from another ideal."""
    R = Ring(["x", "y", "z"])
    return Ideal(R, _STAIRS), groebner_basis(Ideal(R, _STAIRS))


def _basis_element(gb, degree):
    return next(g for g in gb if g.total_degree() == degree)


def test_an_advance_that_reaches_the_8_bit_limit_restarts_at_16_bits(runs):
    I, gb = _stairs()
    z = I.ring.var("z")
    del runs[:]
    for f in (_basis_element(gb, 100), z**100, _basis_element(gb, 127), z**127):
        assert is_member(f, I) == normal_form(f, gb).is_zero()
        assert I._gb is None
    assert (I._run[0].width, len(runs)) == (16, 2)
    assert groebner_basis(I).elements == gb.elements
    assert I._run is None


def test_a_polynomial_wider_than_the_run_restarts_it(runs):
    I, gb = _stairs()
    f = _basis_element(gb, 100)
    del runs[:]
    assert is_member(f, I)
    assert (I._run[0].width, len(runs)) == (8, 1)
    assert is_member(f * I.ring.var("x") ** 30, I)
    assert (I._run[0].width, len(runs)) == (16, 2)


def test_a_budget_error_in_an_advance_drops_the_run():
    I, gb = _stairs()
    f = _basis_element(gb, 100)
    assert is_member(_basis_element(gb, 73), I)
    assert I._run is not None

    def capped():
        max_reductions.set(1)
        return is_member(f, I)

    with pytest.raises(BudgetExceededError, match="budget of 1 exceeded"):
        contextvars.copy_context().run(capped)
    assert I._run is None
    assert is_member(f, I)
    assert groebner_basis(I).elements == gb.elements


def test_an_inhomogeneous_ideal_keeps_no_partial_run():
    R = Ring(["x", "y"])
    I = Ideal(R, ["x^2 - y", "x*y - 1"])
    assert is_member(parse_poly("x^3 - x*y", R), I)
    assert I._run is None and I._gb is not None


def test_e7_containment_pops_no_pair_of_degree_5(monkeypatch):
    """e7's products have degree 3 or 4, so the runs of J and I stop there;
    finishing their bases pops the pairs of degree 5 and more."""
    from resint import verify

    degrees = []
    spoly = groebner._spoly_terms

    def recorded(f, g, lcm, pk):
        degrees.append(lcm & pk.degree)
        return spoly(f, g, lcm, pk)

    monkeypatch.setattr(groebner, "_spoly_terms", recorded)
    sc = verify.load_scenario_file(verify.bundled_scenario_path("e7"))
    assert verify.run_scenario(sc).summary["partial"] == 2
    assert max(degrees) == 4
    for name in ("J", "I"):
        assert sc.ideals[name]._run is not None
        del degrees[:]
        groebner_basis(sc.ideals[name])
        assert min(degrees) == 5


# -- minimal generators -----------------------------------------------------------


def test_min_generators_examples():
    R = Ring(["x", "y"])
    assert [str(g) for g in min_generators(Ideal(R, ["x", "x*y"]))] == ["x"]
    assert len(min_generators(Ideal(R, ["x", "y", "x + y"]))) == 2


def test_min_generators_does_not_depend_on_the_order_of_the_generators():
    """Generators are tried in (degree, terms) order, the order quotient
    takes its divisors in, not in the order given."""
    R = Ring(["x", "y"])
    gens = [parse_poly(s, R) for s in ("x*y", "x*y + y^2", "y^2")]
    kept = {tuple(min_generators(Ideal(R, list(p)))) for p in permutations(gens)}
    assert [[str(g) for g in k] for k in kept] == [["y^2", "x*y"]]


def test_min_generators_rejects_nonhomogeneous():
    R = Ring(["x", "y"])
    with pytest.raises(NonHomogeneousError):
        min_generators(Ideal(R, ["x^2 + y"]))


def test_min_generators_computes_each_kept_set_once(runs):
    """A skipped generator leaves the kept set, and so its run, as it was."""
    R = Ring(["x", "y"])
    kept = min_generators(Ideal(R, ["x", "y", "x*y", "x^2", "y^2"]))
    assert [str(g) for g in kept] == ["y", "x"]
    assert runs == [1, 2]


def test_min_generators_no_redundant_member():
    R = Ring(["x", "y", "z"])
    kept = min_generators(Ideal(R, ["x", "y", "x + y", "z^2", "x*z"]))
    for i, g in enumerate(kept):
        others = Ideal(R, [h for j, h in enumerate(kept) if j != i])
        assert not is_member(g, others)


# -- budget ------------------------------------------------------------------------


def _runaway_ideal():
    R = Ring(["x", "y", "z"])
    return Ideal(R, ["x^4*y - z^3", "y^4 - x*z^2", "z^4 - x^3*y^2"])


def test_budget_exceeded_is_explicit():
    I = _runaway_ideal()
    token = max_reductions.set(3)
    try:
        with pytest.raises(BudgetExceededError):
            groebner_basis(I)
    finally:
        max_reductions.reset(token)


@pytest.mark.parametrize(
    "limit, message",
    [
        ({"MAX_PAIRS": 3}, "pair-queue cap of 3 exceeded in a 3-variable ring"),
        ({"max_reductions": 3}, "reduction-step budget of 3 exceeded in a 3-variable ring"),
    ],
)
def test_budget_error_names_limit_and_arity(limit, message, monkeypatch):
    I = _runaway_ideal()
    context = contextvars.copy_context()
    if "MAX_PAIRS" in limit:
        monkeypatch.setattr(groebner, "MAX_PAIRS", limit["MAX_PAIRS"])
    else:
        context.run(max_reductions.set, limit["max_reductions"])
    with pytest.raises(BudgetExceededError, match=message):
        context.run(groebner_basis, I)
    monkeypatch.undo()
    assert_groebner_certificate(groebner_basis(I))


def test_budget_set_in_a_copied_context_holds_there_only():
    """The budget is read per basis computation and per normal form, from
    the current context, so a value set inside a copied context is not seen
    outside it."""
    I = _runaway_ideal()
    default = max_reductions.get()
    f = parse_poly("x^9*y^5", I.ring)

    def capped(compute, *args):
        max_reductions.set(1)
        assert max_reductions.get() == 1
        return compute(*args)

    with pytest.raises(BudgetExceededError, match="budget of 1 exceeded"):
        contextvars.copy_context().run(capped, groebner_basis, I)
    assert max_reductions.get() == default
    gb = groebner_basis(I)
    assert_groebner_certificate(gb)
    with pytest.raises(BudgetExceededError, match="budget of 1 exceeded"):
        contextvars.copy_context().run(capped, normal_form, f, gb)
    assert max_reductions.get() == default
    normal_form(f, gb)

"""Acceptance gate: every criterion at its stated tolerance.

All identities are over exact rationals, so the tolerance is exact equality;
each criterion also has a wall-clock budget.  One line per criterion is
printed (visible with `pytest -s`).
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from resint import (
    GrevLex,
    Ideal,
    Lex,
    Polynomial,
    Ring,
    certify_basis,
    codim,
    groebner_basis,
    ideals_equal,
    min_generators,
    quotient,
)
from resint.combinat import SpinCrystal, TypeACrystal, build_gk, dynkin
from resint.families import (
    big_cell_matrix,
    bordered_pfaffian_ideal,
    e6_dataset,
    e7_dataset,
    generic_skew,
    pfaffian,
    pfaffian_colon_base,
    pfaffian_ideal_containing,
    pluecker_gr2,
    submaximal_pfaffians,
    typeA_left_ideal,
    typeA_left_chain,
    typeA_right_ideal,
    typeA_right_chain,
    zero_corner,
)
from resint.poly import euler_pairing
from resint.verify import check_colon_containment, check_residual_intersection


def _report(criterion, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} ({elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {criterion} failed"
    assert elapsed <= budget, f"criterion {criterion} exceeded its budget"


@pytest.fixture(scope="module")
def e6():
    return e6_dataset()


@pytest.fixture(scope="module")
def e7():
    return e7_dataset()


def test_criterion_1_e6_session(e6):
    """quotient(a_1, J22) = J23, quotient(a_1, J23) = J22, quotient(a_2, J23) = J17."""
    t0 = time.monotonic()
    ids = e6.ideals
    ok = (
        ideals_equal(quotient(ids["a_1"], ids["J22"]), ids["J23"])
        and ideals_equal(quotient(ids["a_1"], ids["J23"]), ids["J22"])
        and ideals_equal(quotient(ids["a_2"], ids["J23"]), ids["J17"])
    )
    _report(1, ok, time.monotonic() - t0, 300)


def test_criterion_2_e6_structure(e6):
    """mu(J22)=5 with codim(J22)=4, codim(J23)=4, codim(a_1)=4, mu(a_2)=5,
    codim(J17)=5; codimensions stable under lex and grevlex."""
    t0 = time.monotonic()
    ids = e6.ideals
    golden = {"J22": 4, "J23": 4, "a_1": 4, "J17": 5}
    lex = Ring(e6.ring.variables, Lex())
    ok = e6.ring.order == GrevLex()
    ok = ok and all(codim(ids[n]) == v for n, v in golden.items())
    ok = ok and all(
        codim(Ideal(lex, [str(g) for g in ids[n].generators])) == v
        for n, v in golden.items()
    )
    ok = ok and len(min_generators(ids["J22"])) == 5
    ok = ok and len(min_generators(ids["a_2"])) == 5
    _report(2, ok, time.monotonic() - t0, 300)


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (3, 6)])
def test_criterion_3_type_a_identities(k, n):
    """Both colon-identity families on the big cell, all valid arm indices."""
    t0 = time.monotonic()
    M = big_cell_matrix(k, n)
    ring = M.ring
    y1 = typeA_left_ideal(k, n, 1)
    z1 = typeA_right_ideal(k, n, 2)
    ok = True
    for l in range(1, n - k):  # long arm: base coords walk 0..l, target y_l
        base = Ideal(ring, typeA_left_chain(k, n, l))
        ok = ok and ideals_equal(quotient(base, z1), typeA_left_ideal(k, n, l))
    for m in range(1, k):  # short arm: base coords walk 0..m, target z_m
        base = Ideal(ring, typeA_right_chain(k, n, m))
        ok = ok and ideals_equal(
            quotient(base, y1), typeA_right_ideal(k, n, m + 1)
        )
    _report(f"3 ({k},{n})", ok, time.monotonic() - t0, 120)


def test_criterion_4_pluecker_proposition():
    """(K_j + relations) : (I + relations) = (I_j + relations), n in {4,5,6}.

    j = 1 is excluded: there K_1 = I makes the colon the unit ideal while
    I_1 is the irrelevant maximal ideal, so the displayed identity needs
    2 <= j < n.
    """
    t0 = time.monotonic()
    ok = True
    for n in (4, 5, 6):
        model = pluecker_gr2(n)
        I = model.ideal_I()
        for j in range(2, n):
            lhs = quotient(model.ideal_K(j), I)
            ok = ok and ideals_equal(lhs, model.ideal_I_j(j))
    _report(4, ok, time.monotonic() - t0, 180)


def test_criterion_5_odd_pfaffian_colon_identities():
    """For m = 5 and j in {3,4,5}: the colon identity, Pf_j(A) = Pf_j(A'),
    and the even-Pfaffian ideal of the bordered matrix equals Pf_j(A)."""
    t0 = time.monotonic()
    A = generic_skew(5)
    I = Ideal(A.ring, submaximal_pfaffians(A))
    ok = codim(I) == 3
    for j in (3, 4, 5):
        base = Ideal(A.ring, pfaffian_colon_base(A, j))
        K = pfaffian_ideal_containing(A, j)
        ok = ok and ideals_equal(quotient(base, I), K)
        ok = ok and ideals_equal(K, pfaffian_ideal_containing(zero_corner(A, j), j))
        ok = ok and ideals_equal(K, bordered_pfaffian_ideal(A, j))
    # residual-intersection certificates where K is proper (s = j)
    for j in (3, 4):
        base = Ideal(A.ring, pfaffian_colon_base(A, j))
        K = pfaffian_ideal_containing(A, j)
        passed, _ = check_residual_intersection(base, I, K, j)
        ok = ok and passed
    _report(5, ok, time.monotonic() - t0, 600)


def test_criterion_5_extended_m7():
    """m = 7 extension of the odd-Pfaffian colon identity (optional scale)."""
    t0 = time.monotonic()
    A = generic_skew(7)
    I = Ideal(A.ring, submaximal_pfaffians(A))
    ok = True
    for j in range(3, 8):
        base = Ideal(A.ring, pfaffian_colon_base(A, j))
        ok = ok and ideals_equal(quotient(base, I), pfaffian_ideal_containing(A, j))
    _report("5 (extended m=7)", ok, time.monotonic() - t0, 600)


def test_criterion_6_e7_containment_certificates(e7):
    """Containment-only certificates for J:I2 == I1 and I:I2 == I3 with
    I2 := I51."""
    t0 = time.monotonic()
    ids = e7.ideals
    ok1, _ = check_colon_containment(ids["J"], ids["I2"], ids["I1"])
    ok2, _ = check_colon_containment(ids["I"], ids["I2"], ids["I3"])
    _report(6, ok1 and ok2, time.monotonic() - t0, 600)


def test_criterion_6_extended_exact_equality(e7):
    """Full exact colon equality for the session checks, and the alias
    finding: I2 := I51 reproduces both recorded verdicts, the alternative
    I2 := ideal(Q, f_1..f_5) reproduces neither."""
    t0 = time.monotonic()
    ids = e7.ideals
    ok = ideals_equal(quotient(ids["J"], ids["I2"]), ids["I1"])
    ok = ok and ideals_equal(quotient(ids["I"], ids["I2"]), ids["I3"])
    ok = ok and not ideals_equal(quotient(ids["J"], ids["I3"]), ids["I1"])
    ok = ok and not ideals_equal(quotient(ids["I"], ids["I3"]), ids["I3"])
    _report("6 (extended exact)", ok, time.monotonic() - t0, 1800)


def test_criterion_7_property_suites(e6, e7):
    """S-polynomial certificates, reduced-basis uniqueness, the monomial
    colon oracle, pf^2 = det, crystal cardinalities with the partial-inverse
    law, and the Euler identity on the 27-variable cubic."""
    t0 = time.monotonic()
    ok = True

    # Buchberger certificates on the session bases
    for name in ("a_1", "J22", "J23"):
        ok = ok and certify_basis(groebner_basis(e6.ideals[name]))

    # reduced-basis uniqueness under generator recombination
    rng = random.Random(417)
    vars5 = ["a", "b", "c", "d", "e"]
    for _ in range(100):
        ring = Ring(vars5[: rng.randrange(2, 6)])
        gens = []
        for _ in range(3):
            coeffs = {}
            for _ in range(rng.randrange(1, 4)):
                m = [0] * ring.arity
                for _ in range(rng.randrange(4)):
                    m[rng.randrange(ring.arity)] += 1
                coeffs[tuple(m)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
            gens.append(Polynomial(ring, coeffs))
        I = Ideal(ring, gens)
        mixed = list(I.generators)
        if len(mixed) >= 2:
            for _ in range(5):
                i, j = rng.sample(range(len(mixed)), 2)
                mixed[i] = mixed[i] + mixed[j].scale(rng.choice([-2, -1, 1, 2]))
            rng.shuffle(mixed)
        ok = ok and groebner_basis(I).elements == groebner_basis(Ideal(ring, mixed)).elements

    # quotient vs the combinatorial monomial colon
    from test_groebner import _monomial_colon_oracle

    for _ in range(100):
        nv = rng.randrange(2, 7)
        ring = Ring([f"v{i}" for i in range(nv)])
        def rand_mon():
            m = [0] * nv
            for _ in range(rng.randrange(1, 5)):
                m[rng.randrange(nv)] += 1
            return tuple(m)
        gi = [rand_mon() for _ in range(rng.randrange(1, 9))]
        gj = [rand_mon() for _ in range(rng.randrange(1, 4))]
        I = Ideal(ring, [Polynomial(ring, {m: 1}) for m in gi])
        J = Ideal(ring, [Polynomial(ring, {m: 1}) for m in gj])
        ok = ok and ideals_equal(quotient(I, J), _monomial_colon_oracle(ring, gi, gj))

    # pf^2 = det on all even principal minors of a generic 7x7 skew matrix
    A = generic_skew(7)
    def principal_det(rows):
        rows = tuple(rows)
        def det(rs, cs):
            if not rs:
                return A.ring.one()
            total = A.ring.zero()
            for idx, r in enumerate(rs):
                e = A.entry(r, cs[0])
                if e.is_zero():
                    continue
                term = e * det(rs[:idx] + rs[idx + 1 :], cs[1:])
                total = total + (term if idx % 2 == 0 else -term)
            return total
        return det(rows, rows)
    for size in (2, 4, 6):
        for rows in itertools.combinations(range(1, 8), size):
            p = pfaffian(A, rows)
            ok = ok and p * p == principal_det(rows)

    # crystal cardinalities and the partial-inverse law
    for n in range(4, 9):
        ok = ok and len(SpinCrystal(n).elements) == 2 ** (n - 1)
        for k in range(1, n + 1):
            ok = ok and len(TypeACrystal(k, n).elements) == math.comb(n, k)
    for n in (4, 5, 6, 7):
        s = SpinCrystal(n)
        for el in s.elements:
            for j in range(1, n + 1):
                down = s.lowering(j, el)
                if down is not None:
                    ok = ok and s.raising(j, down) == el
                up = s.raising(j, el)
                if up is not None:
                    ok = ok and s.lowering(j, up) == el

    # Euler identity on the degree-3 form
    Q = e7.polys["Q"]
    ok = ok and euler_pairing(Q) == Q.scale(3)

    _report(7, ok, time.monotonic() - t0, 180)


def test_criterion_8_walk_graph_goldens():
    """build_gk(E6, 6) reproduces the recorded labels; build_gk(D, n, n)
    gives c = 3 with arm lengths {n-3, 1}."""
    t0 = time.monotonic()
    g = build_gk(dynkin("E", 6), 6)
    ok = (
        g.x_chain == (6, 5)
        and g.u == 4
        and g.y_arm[0] == 2
        and g.z_arm[0] == 3
        and g.z_arm == (3, 1)
    )
    for n in (4, 5, 6, 7, 8):
        gd = build_gk(dynkin("D", n), n)
        ok = ok and gd.c == 3 and sorted((gd.d, gd.t)) == sorted((n - 3, 1))
    _report(8, ok, time.monotonic() - t0, 30)

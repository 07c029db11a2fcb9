"""Session-level goldens for the bundled datasets, and bases never read from disk."""

import hashlib
import json

from resint import (
    GrevLex,
    Ideal,
    Lex,
    Ring,
    certify_basis,
    codim,
    groebner_basis,
    ideals_equal,
    intersect,
    is_member,
    min_generators,
    parse_poly,
)
from resint.families import big_cell_matrix, e6_dataset, generic_matrix, generic_skew, minors, submaximal_pfaffians

# First run of the engine, then frozen; certified below by reducing every
# S-polynomial to zero.
J22_GREVLEX_BASIS_SIZE = 12
J22_GREVLEX_LEADING = [
    "y_45*y_1235",
    "y_45*y_1234",
    "y_35*y_1234",
    "y_25*y_1234",
    "y_15*y_1234",
    "y_25*y_34*y_1345",
    "y_25*y_34*y_1245",
    "y_15*y_34*y_1245",
    "y_25*y_34*y_1235",
    "y_15*y_34*y_1235",
    "y_15*y_24*y_1235",
    "y_15*y_24*y_35*y_1245",
]
J22_LEX_BASIS_SIZE = 12


def _lm_strings(gb):
    names = gb.ring.variables
    out = []
    for m in gb.leading_monomials():
        out.append(
            "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(names, m) if e)
        )
    return out


def test_j22_basis_golden():
    ds = e6_dataset()
    assert ds.ring.order == GrevLex()
    gb = groebner_basis(ds.ideals["J22"])
    assert len(gb) == J22_GREVLEX_BASIS_SIZE
    assert _lm_strings(gb) == J22_GREVLEX_LEADING
    assert certify_basis(gb)
    lex = Ring(ds.ring.variables, Lex())
    J22_lex = Ideal(lex, [str(g) for g in ds.ideals["J22"].generators])
    assert len(groebner_basis(J22_lex)) == J22_LEX_BASIS_SIZE


def test_zb1_is_member_of_j23():
    ds = e6_dataset()
    assert is_member(ds.polys["zb_1"], ds.ideals["J23"])


def test_e6_intersection_is_linking_sequence():
    ds = e6_dataset()
    inter = intersect(ds.ideals["J22"], ds.ideals["J23"])
    assert ideals_equal(inter, ds.ideals["a_1"])
    union = Ideal(ds.ring, ds.ideals["J22"].generators + ds.ideals["J23"].generators)
    assert codim(union) >= codim(ds.ideals["J22"]) + 1


def test_j22_generators_are_minimal():
    ds = e6_dataset()
    kept = min_generators(ds.ideals["J22"])
    assert len(kept) == 5
    for i, g in enumerate(kept):
        others = Ideal(ds.ring, [h for j, h in enumerate(kept) if j != i])
        assert not is_member(g, others)


def test_codim_generic_maximal_minors():
    # height-2 perfect ideal: maximal minors of a generic s x (s+1) matrix
    M = generic_matrix(2, 3)
    assert codim(Ideal(M.ring, minors(M, 2))) == 2
    M3 = generic_matrix(3, 4)
    assert codim(Ideal(M3.ring, minors(M3, 3))) == 2


def test_codim_submaximal_pfaffians():
    A = generic_skew(5)
    assert codim(Ideal(A.ring, submaximal_pfaffians(A))) == 3


def test_typeA_left_ideal_codims():
    # walk codimension grows by one per arm step
    for (k, n) in [(2, 5), (3, 6)]:
        M = big_cell_matrix(k, n)
        from resint.families import typeA_left_ideal

        for l in range(1, n - k):
            assert codim(typeA_left_ideal(k, n, l)) == l + 1


def test_residual_certificate_soundness():
    # definitional direction: every generator of the computed quotient
    # multiplies every generator of the divisor back into the base ideal
    from resint import quotient
    from resint.verify import check_residual_intersection

    ds = e6_dataset()
    A, I, K = ds.ideals["a_2"], ds.ideals["J23"], ds.ideals["J17"]
    ok, _ = check_residual_intersection(A, I, K, 5)
    assert ok
    for r in quotient(A, I).generators:
        for g in I.generators:
            assert is_member(r * g, A)


def test_e6_link_is_symmetric():
    from resint.verify import check_link

    ds = e6_dataset()
    ok_fwd, values = check_link(ds.ideals["a_1"], ds.ideals["J22"], ds.ideals["J23"])
    ok_rev, _ = check_link(ds.ideals["a_1"], ds.ideals["J23"], ds.ideals["J22"])
    assert ok_fwd and ok_rev
    assert values["codim_a"] == 4


def test_typeA_arm_ideals_linked_by_chain_coordinates():
    # Gr(2,5): the first long-arm and short-arm ideals are linked by the
    # two coordinates shared by both walks.
    from resint.families import typeA_left_chain, typeA_left_ideal, typeA_right_ideal
    from resint.verify import check_link

    M = big_cell_matrix(2, 5)
    a = Ideal(M.ring, typeA_left_chain(2, 5, 1))
    y1 = typeA_left_ideal(2, 5, 1)
    z1 = typeA_right_ideal(2, 5, 2)
    ok, values = check_link(a, y1, z1)
    assert ok
    assert values["codim_a"] == 2


def test_planted_basis_file_is_never_read(tmp_path, monkeypatch):
    # A wrong basis {x} for (x*y), named by the sha256 of (variables, order
    # tag, generators) as an on-disk basis cache would name it.  Bases live
    # only on the Ideal, so neither this file nor the variable is consulted.
    ring = Ring(["x", "y"])
    key = json.dumps([["x", "y"], ring.order.tag, ["x*y"]])
    planted = tmp_path / f"gb-{hashlib.sha256(key.encode()).hexdigest()}.json"
    planted.write_text(json.dumps({"basis": ["x"]}))
    monkeypatch.setenv("RESINT_CACHE_DIR", str(tmp_path))
    assert is_member(parse_poly("x", ring), Ideal(ring, ["x*y"])) is False
    assert list(tmp_path.iterdir()) == [planted]

"""Ideal families: minors, Pfaffians, bordered matrices, type A cells,
the Gr(2,n) model, and the bundled datasets.
"""

import itertools

import pytest

from resint import Ideal, ideals_equal, is_member, parse_poly
from resint.families import (
    FamilyError,
    big_cell_matrix,
    bordered_pfaffian_ideal,
    e6_dataset,
    e7_dataset,
    generic_matrix,
    generic_skew,
    ku_bordered,
    matrix_minor,
    minors,
    pfaffian,
    pfaffian_colon_base,
    pfaffian_ideal_containing,
    pluecker_gr2,
    submaximal_pfaffians,
    typeA_coordinate,
    typeA_left_ideal,
    typeA_left_subset,
    typeA_right_ideal,
    typeA_right_subset,
    zero_corner,
)
from resint.poly import euler_pairing


# -- generic matrices ---------------------------------------------------------


def test_generic_matrix_variables():
    M = generic_matrix(2, 3)
    assert M.ring.arity == 6
    assert str(M.entry(1, 2)) == "y_12"
    assert generic_matrix(1, 1).ring.variables == ("y_11",)


def test_big_cell_shape():
    M = big_cell_matrix(2, 5)
    assert (M.rows, M.cols) == (2, 5)
    assert M.entry(1, 4) == M.ring.one()
    assert M.entry(2, 4).is_zero()
    assert matrix_minor(M, [1, 2], [4, 5]) == M.ring.one()


def test_minor_counts():
    M = generic_matrix(2, 3)
    twos = minors(M, 2)
    assert len(twos) == 3
    single = minors(generic_matrix(2, 2), 2)
    assert len(single) == 1
    assert single[0] == parse_poly("y_11*y_22 - y_12*y_21", single[0].ring)
    with pytest.raises(FamilyError, match="no 3x3 minors of a 2x3 matrix"):
        minors(M, 3)


def test_minors_share_the_matrix_memo():
    # matrix_minor, minors and the Schubert ideals all read the memo that
    # the matrix keeps, so a minor is expanded once per matrix.
    M = generic_matrix(3, 4)
    twos = minors(M, 2)
    assert matrix_minor(M, [1, 2], [1, 2]) is twos[0]
    assert minors(M, 2)[5] is twos[5]
    assert minors(generic_matrix(3, 4), 2)[0] is not twos[0]


def _det_column_expansion(M, rows, cols):
    """Independent oracle: Laplace expansion along the first column."""
    if not rows:
        return M.ring.one()
    c = cols[0]
    total = M.ring.zero()
    for idx, r in enumerate(rows):
        e = M.entry(r, c)
        if e.is_zero():
            continue
        sub = _det_column_expansion(M, rows[:idx] + rows[idx + 1 :], cols[1:])
        term = e * sub
        total = total + (term if idx % 2 == 0 else -term)
    return total


def test_laplace_row_vs_column():
    M = generic_matrix(4, 4)
    for size in (2, 3, 4):
        for rows in itertools.combinations(range(1, 5), size):
            for cols in itertools.combinations(range(1, 5), size):
                assert matrix_minor(M, rows, cols) == _det_column_expansion(M, rows, cols)


# -- Pfaffians ------------------------------------------------------------------


def test_pfaffian_small_cases():
    A = generic_skew(5)
    assert pfaffian(A, [1, 2]) == A.ring.var("x_12")
    assert pfaffian(A, []) == A.ring.one()
    assert pfaffian(A, [1, 2, 3, 4]) == parse_poly(
        "x_12*x_34 - x_13*x_24 + x_14*x_23", A.ring
    )
    with pytest.raises(FamilyError, match="pfaffian needs an even index set"):
        pfaffian(A, [1, 2, 3])


def test_pfaffian_squares_to_determinant():
    A = generic_skew(7)

    def det(rows):
        M = type("M", (), {})()
        M.ring = A.ring
        M.entry = lambda i, j: A.entry(rows[i - 1], rows[j - 1])
        M.rows = M.cols = len(rows)
        return _det_column_expansion(M, tuple(range(1, len(rows) + 1)), tuple(range(1, len(rows) + 1)))

    for size in (2, 4, 6):
        for rows in itertools.combinations(range(1, 8), size):
            p = pfaffian(A, rows)
            assert p * p == det(rows)


def test_submaximal_pfaffians():
    A3 = generic_skew(3)
    assert [str(p) for p in submaximal_pfaffians(A3)] == ["x_23", "x_13", "x_12"]
    A5 = generic_skew(5)
    subs = submaximal_pfaffians(A5)
    assert len(subs) == 5
    assert all(p.total_degree() == 2 for p in subs)
    with pytest.raises(FamilyError, match="sub-maximal pfaffians need odd size"):
        submaximal_pfaffians(generic_skew(4))


def test_pfaffian_ideal_containing_counts():
    A = generic_skew(5)
    # j = 5: S over the empty containment constraint; includes pf() = 1
    all_even = pfaffian_ideal_containing(A, 5)
    assert len(all_even.generators) == 16
    four = pfaffian_ideal_containing(A, 3)
    assert len(four.generators) == 4
    with pytest.raises(FamilyError, match=r"j=2 outside \[3, 5\]"):
        pfaffian_ideal_containing(A, 2)


def test_pfaffian_ideal_nesting():
    A = generic_skew(5)
    for j in (3, 4):
        small = pfaffian_ideal_containing(A, j)
        big = pfaffian_ideal_containing(A, j + 1)
        for g in small.generators:
            assert is_member(g, big)


def test_zero_corner_and_equality_of_containing_ideals():
    A = generic_skew(5)
    for j in (3, 4, 5):
        Ap = zero_corner(A, j)
        assert Ap.entry(5, 4).is_zero()
        assert ideals_equal(
            pfaffian_ideal_containing(A, j), pfaffian_ideal_containing(Ap, j)
        )


def test_ku_bordered_shape_and_pf_through_identity():
    A = generic_skew(5)
    T = ku_bordered(A, 3)
    assert T.size == 8
    assert T.ring.arity == 10
    assert T.entry(3, 6) == A.ring.one()
    assert T.entry(1, 6).is_zero()
    assert T.entry(7, 8).is_zero()
    # rows forced through the identity block reproduce a Pfaffian of A
    full = pfaffian(T, range(1, 9))
    base = pfaffian(A, [1, 2])
    assert full == base or full == -base


def test_bordered_pfaffian_ideal_matches_containing():
    A = generic_skew(5)
    for j in (3, 4, 5):
        assert ideals_equal(
            bordered_pfaffian_ideal(A, j), pfaffian_ideal_containing(A, j)
        )


def test_colon_base_is_last_j_submaximals():
    A = generic_skew(5)
    base = pfaffian_colon_base(A, 3)
    subs = submaximal_pfaffians(A)
    assert base == subs[2:]


# -- type A ------------------------------------------------------------------------


def test_typeA_subsets():
    assert typeA_left_subset(2, 0) == (1, 2)
    assert typeA_left_subset(2, 2) == (1, 4)
    assert typeA_right_subset(2, 2) == (2, 3)
    assert typeA_right_subset(3, 1) == (1, 2, 4)


def test_typeA_left_examples():
    I = typeA_left_ideal(2, 5, 1)
    assert len(I.generators) == 3
    assert all(g.total_degree() == 2 for g in I.generators)


def test_typeA_right_examples():
    I = typeA_right_ideal(2, 5, 1)
    assert len(I.generators) == 1
    M = big_cell_matrix(2, 5)
    assert I.generators[0] == typeA_coordinate(M, (1, 2))
    with pytest.raises(FamilyError, match=r"right walk index s=9 outside \[0, 2\]"):
        typeA_right_ideal(2, 5, 9)


def test_typeA_chain_bounds():
    from resint.families import typeA_left_chain, typeA_right_chain

    assert len(typeA_left_chain(2, 5, 3)) == 4
    with pytest.raises(FamilyError, match=r"walk position 4 outside \[0, 3\]"):
        typeA_left_chain(2, 5, 4)
    with pytest.raises(FamilyError, match=r"walk position 3 outside \[0, 2\]"):
        typeA_right_chain(2, 5, 3)


def test_typeA_minor_rule_oracle():
    # The displayed minor rules, in their consistent regimes, agree with the
    # coordinate definition: first k+l columns while k+l <= n-k, last
    # n-k-l rows beyond.
    M = big_cell_matrix(2, 6)
    first_cols = Ideal(M.ring, minors_of_columns(M, 2, 3))
    assert ideals_equal(typeA_left_ideal(2, 6, 1), first_cols)
    M2 = big_cell_matrix(3, 6)
    last_rows = Ideal(M2.ring, minors_of_rows(M2, [2, 3], 3))
    assert ideals_equal(typeA_left_ideal(3, 6, 1), last_rows)


def minors_of_columns(M, size, upto_col):
    out = []
    rows = tuple(range(1, M.rows + 1))
    for cols in itertools.combinations(range(1, upto_col + 1), size):
        out.append(matrix_minor(M, rows, cols))
    return out


def minors_of_rows(M, rows, width):
    out = []
    for cols in itertools.combinations(range(1, width + 1), len(rows)):
        out.append(matrix_minor(M, tuple(rows), cols))
    return out


# -- Gr(2, n) --------------------------------------------------------------------


def test_pluecker_relation_counts():
    assert len(pluecker_gr2(4).relations) == 1
    assert len(pluecker_gr2(5).relations) == 5
    with pytest.raises(FamilyError, match="need n >= 4"):
        pluecker_gr2(3)


def test_pluecker_names_take_a_separator_past_nine():
    assert pluecker_gr2(9).ring.variables[:2] == ("p_12", "p_13")
    model = pluecker_gr2(10)
    assert model.ring.variables[:2] == ("p_1_2", "p_1_3")
    assert str(model.coordinate(1, 10)) == "p_1_10"
    assert len(model.relations) == 210
    assert str(model.relations[0]) == "p_1_4*p_2_3 - p_1_3*p_2_4 + p_1_2*p_3_4"


def test_pluecker_ideals():
    model = pluecker_gr2(5)
    assert len(model.ideal_I().generators) == 4 + 5
    assert len(model.ideal_K(3).generators) == 2 + 5
    assert len(model.ideal_I_j(3).generators) == 3 + 5


# -- datasets ---------------------------------------------------------------------


def test_e6_dataset_shapes():
    ds = e6_dataset()
    assert ds.ring.arity == 16
    assert len(ds.ideals["J22"].generators) == 5
    assert len(ds.ideals["J23"].generators) == 6
    assert len(ds.ideals["a_1"].generators) == 4
    assert len(ds.ideals["a_2"].generators) == 5
    assert len(ds.ideals["J17"].generators) == 10
    for name in ("zb_1", "zb_2", "zb_3", "zb_4", "zb_5", "z_1", "z_2", "z_3", "z_4", "z_5"):
        assert ds.polys[name].is_homogeneous()
        assert ds.polys[name].total_degree() == 2


def test_e6_dataset_roundtrip():
    ds = e6_dataset()
    for p in ds.polys.values():
        assert parse_poly(str(p), ds.ring) == p


def test_e7_dataset_shapes():
    ds = e7_dataset()
    assert ds.ring.arity == 27
    Q = ds.polys["Q"]
    assert len(Q.terms) == 45
    assert sum(c * c for _, c in Q.terms) == 45  # all coefficients are +-1
    assert Q.is_homogeneous() and Q.total_degree() == 3
    for i in range(1, 28):
        f = ds.polys[f"f_{i}"]
        assert f.is_homogeneous() and f.total_degree() == 2
    assert len(ds.ideals["I1"].generators) == 12
    assert ds.ring.var("x_27") in ds.ideals["I1"].generators
    assert len(ds.ideals["I3"].generators) == 6
    assert len(ds.ideals["I51"].generators) == 7
    assert ds.ideals["I2"].generators == ds.ideals["I51"].generators


def test_e7_f27_matches_trailing_terms():
    ds = e7_dataset()
    expected = parse_poly("x_5*x_6 - x_4*x_8 + x_3*x_10 - x_2*x_12 + x_1*x_15", ds.ring)
    assert ds.polys["f_27"] == expected


def test_e7_f_is_gradient_of_q():
    ds = e7_dataset()
    Q = ds.polys["Q"]
    for i in range(1, 28):
        assert ds.polys[f"f_{i}"] == Q.derivative(f"x_{i}")


def test_e7_euler_identity():
    ds = e7_dataset()
    Q = ds.polys["Q"]
    assert euler_pairing(Q) == Q.scale(3)


def test_e7_alternative_alias():
    # I51 is the scenario's I2 itself; the alternative reading I3 is another ideal.
    ideals = e7_dataset().ideals
    assert ideals["I51"] is ideals["I2"]
    assert ideals["I3"].generators != ideals["I2"].generators

"""Dynkin walks, crystals, Bruhat order, and DOT export."""

import itertools

import pytest

from resint import ideals_equal
from resint.combinat import (
    CombinatError,
    DynkinDiagram,
    SpinCrystal,
    TypeACrystal,
    build_gk,
    crystal_to_dot,
    dynkin,
    gk_to_dot,
    index_sequence,
    pfaffian_label,
    t_constraint,
)
from resint.families import (
    FamilyError,
    generic_skew,
    pfaffian_ideal_containing,
    typeA_left_subset,
    typeA_right_subset,
    typeD_schubert_ideal,
)


# -- Dynkin diagrams -----------------------------------------------------------


def test_dynkin_shapes():
    a5 = dynkin("A", 5)
    assert all(a5.degree(i) <= 2 for i in range(1, 6))
    assert dynkin("E", 6).degree(4) == 3
    assert dynkin("D", 5).degree(3) == 3
    with pytest.raises(CombinatError, match="type E needs rank 6, 7 or 8"):
        dynkin("E", 9)
    with pytest.raises(CombinatError, match="type D needs rank >= 4"):
        dynkin("D", 3)


# -- walk graphs -----------------------------------------------------------------


def test_build_gk_e6_golden_labels():
    g = build_gk(dynkin("E", 6), 6)
    assert g.x_chain == (6, 5)
    assert g.u == 4
    assert g.y_arm == (2,)
    assert g.z_arm == (3, 1)
    assert (g.c, g.d, g.t) == (4, 1, 2)


def test_build_gk_type_d_arm_lengths():
    for n in (4, 5, 6, 7):
        g = build_gk(dynkin("D", n), n)
        assert g.c == 3
        assert sorted((g.d, g.t)) == sorted((n - 3, 1))


def test_build_gk_type_a_coordinates():
    g = build_gk(dynkin("A", 5), 2)
    assert g.u == 2
    assert {g.y_arm[0], g.z_arm[0]} == {1, 3}
    # nodes carry the nested reduced words of the walk
    words = {n.name: n.word for n in g.nodes}
    assert words["p0"] == ()
    assert words["p2"] == (2,)
    assert words["p3"] == (3, 2)
    assert words["p1"] == (1, 2)
    # acting on the base subset {1, 2} reproduces the cell coordinates
    crystal = TypeACrystal(2, 6)
    base = (1, 2)
    def act(word):
        el = base
        for j in reversed(word):
            el = crystal.reflect(j, el)
        return el
    assert act(words["p0"]) == (1, 2)
    assert act(words["p2"]) == (1, 3)
    assert act(words["p1"]) == (2, 3)
    assert act(words["p3"]) == (1, 4)


def test_build_gk_edge_count_invariant():
    for (t, r, k) in [("A", 5, 2), ("D", 5, 5), ("E", 6, 6), ("E", 7, 7), ("E", 8, 1)]:
        d = dynkin(t, r)
        g = build_gk(d, k)
        assert len(g.edges) == r + 1
        assert len(g.nodes) == r + 2
        assert t_constraint(g)


def test_build_gk_rejects_bad_start():
    with pytest.raises(CombinatError, match="start node 4 is not a leaf"):
        build_gk(dynkin("E", 6), 4)  # interior node
    with pytest.raises(CombinatError, match="both arms must be nonempty"):
        build_gk(dynkin("A", 5), 1)  # degenerate arm


def test_build_gk_rejects_diagrams_that_are_not_t_shaped():
    def diagram(rank, edges):
        return DynkinDiagram("D", rank, frozenset(edges))

    with pytest.raises(CombinatError, match="outside the diagram"):
        build_gk(dynkin("D", 5), 6)
    with pytest.raises(CombinatError, match="no trivalent node"):
        build_gk(diagram(3, {(1, 2), (2, 3)}), 1)
    with pytest.raises(CombinatError, match="second branch node"):
        build_gk(diagram(6, {(1, 3), (2, 3), (3, 4), (4, 5), (4, 6)}), 1)
    with pytest.raises(CombinatError, match="both arms must be nonempty"):
        build_gk(dynkin("A", 5), 5)


def test_walk_chain_totally_ordered_in_bruhat():
    g = build_gk(dynkin("A", 5), 2)
    crystal = TypeACrystal(2, 6)
    base = (1, 2)
    def act(word):
        el = base
        for j in reversed(word):
            el = crystal.reflect(j, el)
        return el
    for arm in ("y_arm", "z_arm"):
        chain = [()]
        chain += [n.word for n in g.nodes if n.dynkin in (g.u, *getattr(g, arm))]
        els = [act(w) for w in chain]
        for a, b in zip(els, els[1:]):
            assert crystal.bruhat_leq(a, b)


# -- type A crystal -----------------------------------------------------------------


def test_typeA_cardinalities():
    for n in range(2, 9):
        for k in range(1, n + 1):
            c = TypeACrystal(k, n)
            import math

            assert len(c.elements) == math.comb(n, k)


def test_typeA_bruhat_examples():
    c = TypeACrystal(2, 6)
    assert c.bruhat_leq((1, 3), (2, 5))
    assert not c.bruhat_leq((1, 4), (2, 3))


def test_typeA_operators_partial_inverse():
    for (k, n) in [(2, 4), (2, 5), (3, 6)]:
        c = TypeACrystal(k, n)
        for el in c.elements:
            for j in range(1, n):
                down = c.lowering(j, el)
                if down is not None:
                    assert c.raising(j, down) == el
                up = c.raising(j, el)
                if up is not None:
                    assert c.lowering(j, up) == el


def test_typeA_operator_values():
    # Exact values, so that a step that is wrong the same way in both
    # directions still fails.
    c = TypeACrystal(2, 5)
    assert c.lowering(2, (1, 2)) == (1, 3)
    assert c.lowering(1, (1, 2)) is None
    assert c.raising(2, (1, 3)) == (1, 2)


# -- spin crystal -------------------------------------------------------------------


def test_spin_cardinalities():
    for n in range(4, 9):
        assert len(SpinCrystal(n).elements) == 2 ** (n - 1)


def test_spin_operator_examples():
    s = SpinCrystal(5)
    assert s.lowering(1, (1, -1, 1, 1, -1)) == (-1, 1, 1, 1, -1)
    assert s.lowering(1, (-1, 1, 1, 1, -1)) is None
    assert s.lowering(5, (1, 1, 1, 1, 1)) == (1, 1, 1, -1, -1)
    assert s.raising(5, (1, 1, 1, -1, -1)) == (1, 1, 1, 1, 1)


# Both crystals, every step, j = 0 and j = max + 1; ids are "<op>-<j>" for
# SpinCrystal(5) and "typeA-<op>-<j>" for TypeACrystal(2, 5).
_OUTSIDE_RANGE = [
    pytest.param(crystal, el, op, j, top, id=f"{prefix}{op}-{j}")
    for prefix, crystal, el, top in [
        ("", SpinCrystal(5), (1, 1, 1, 1, 1), 5),
        ("typeA-", TypeACrystal(2, 5), (1, 5), 4),
    ]
    for op in ("lowering", "raising", "reflect")
    for j in (0, top + 1)
]


@pytest.mark.parametrize("crystal, el, op, j, top", _OUTSIDE_RANGE)
def test_spin_operator_index_outside_range(crystal, el, op, j, top):
    with pytest.raises(CombinatError, match=rf"operator index {j} outside \[1, {top}\]"):
        getattr(crystal, op)(j, el)


@pytest.mark.parametrize(
    "op, j, el",
    [
        ("lowering", 4, (4, 9)),
        ("reflect", 1, (1,)),
        ("raising", 2, (3, 3)),
        ("lowering", 1, (2, 1)),
        ("bruhat_leq", (1, 2), (0, 2)),
    ],
    ids=["lowering-past-n", "reflect-short", "raising-repeated", "lowering-unsorted", "bruhat-zero"],
)
def test_typeA_element_outside_the_crystal(op, j, el):
    # Each is no 2-subset of [1, 5], so no step or comparison may take it.
    with pytest.raises(CombinatError, match=r"is not a 2-subset of \[1, 5\]"):
        getattr(TypeACrystal(2, 5), op)(j, el)


def test_crystal_operator_ranges_and_labels():
    a, s = TypeACrystal(2, 5), SpinCrystal(5)
    assert a.operators == range(1, 5)
    assert s.operators == range(1, 6)
    assert a.label((1, 5)) == "{1,5}"
    assert s.label((1, -1, 1, 1, -1)) == "+-++-"


def test_spin_top_values():
    # The sink of the lowering operators, as the exhaustive search found it.
    tops = {
        4: "----", 5: "----+", 6: "------", 7: "------+", 8: "--------",
        9: "--------+", 10: "----------", 11: "----------+", 12: "------------",
    }
    for n, top in tops.items():
        s = SpinCrystal(n)
        assert s.label(s.top()) == top
        assert all(s.lowering(j, s.top()) is None for j in s.operators)


def test_spin_partial_inverse_exhaustive():
    for n in range(4, 8):
        s = SpinCrystal(n)
        for el in s.elements:
            for j in range(1, n + 1):
                down = s.lowering(j, el)
                if down is not None:
                    assert s.raising(j, down) == el
                up = s.raising(j, el)
                if up is not None:
                    assert s.lowering(j, up) == el


def test_spin_minus_count_parity():
    s = SpinCrystal(6)
    for el in s.elements:
        minuses = sum(1 for x in el if x < 0)
        for j in range(1, 7):
            down = s.lowering(j, el)
            if down is None:
                continue
            after = sum(1 for x in down if x < 0)
            assert after - minuses in (0, 2)
            assert after % 2 == 0


def test_spin_bruhat_partial_order():
    s = SpinCrystal(5)
    els = s.elements
    bottom, top = s.bottom(), s.top()
    for a in els:
        assert s.bruhat_leq(bottom, a)
        assert s.bruhat_leq(a, top)
        for b in els:
            if s.bruhat_leq(a, b) and s.bruhat_leq(b, a):
                assert a == b
    # transitivity on a sample
    for a, b, c in itertools.islice(itertools.product(els, els, els), 0, 4096, 7):
        if s.bruhat_leq(a, b) and s.bruhat_leq(b, c):
            assert s.bruhat_leq(a, c)


def test_pfaffian_labels():
    assert pfaffian_label((1, 1, 1, 1)) == ()
    assert pfaffian_label((-1, -1, 1, 1)) == (1, 2)
    assert pfaffian_label((-1, -1, -1, -1)) == (1, 2, 3, 4)
    with pytest.raises(CombinatError, match="not a sign sequence"):
        pfaffian_label((1, 0, -1))


def test_index_sequence():
    # plus positions ascending, then reflected minus positions
    assert index_sequence((1, -1, -1, 1, 1), 5) == (1, 4, 5, 8, 9)
    el = (1, 1, 1, 1, 1)
    assert index_sequence(el, 5) == (1, 2, 3, 4, 5)


def test_schubert_ideal_extremes():
    s = SpinCrystal(5)
    A = generic_skew(5)
    assert len(typeD_schubert_ideal(s.top(), s, A).generators) == 0
    bottom_ideal = typeD_schubert_ideal(s.bottom(), s, A)
    assert len(bottom_ideal.generators) == 15


def test_schubert_ideal_single_plus_is_containing_ideal():
    s = SpinCrystal(5)
    A = generic_skew(5)
    for j in (3, 4):
        el = tuple(1 if pos == 5 - j else -1 for pos in range(1, 6))
        assert ideals_equal(
            typeD_schubert_ideal(el, s, A), pfaffian_ideal_containing(A, j)
        )


def test_schubert_ideal_rank_mismatch():
    s = SpinCrystal(4)
    A = generic_skew(5)
    with pytest.raises(FamilyError, match="crystal rank and matrix size differ"):
        typeD_schubert_ideal((1, 1, 1, 1), s, A)


# -- the walk graph reads off the families ------------------------------------


def _apply_word(crystal, word, el):
    """The Weyl word acting on el: its last letter acts first."""
    for j in reversed(word):
        el = crystal.reflect(j, el)
    return el


@pytest.mark.parametrize("n", range(4, 11))
def test_typeA_walk_words_reach_the_arm_subsets(n):
    # Along each arm from p0 through the branch node, the s-th node's word
    # takes the bottom k-subset to walk node s of the type A builders: the
    # arm through k+1 is the long-arm rule, the arm through k-1 the short-arm
    # rule, whichever of them is the longer y arm.
    for k in range(2, n - 1):
        g = build_gk(dynkin("A", n - 1), k)
        crystal = TypeACrystal(k, n)
        words = {node.dynkin: node.word for node in g.nodes}
        for arm in (g.y_arm, g.z_arm):
            rule = typeA_left_subset if arm[0] == k + 1 else typeA_right_subset
            path = [()] + [words[v] for v in (g.u, *arm)]
            reached = [_apply_word(crystal, w, crystal.elements[0]) for w in path]
            assert reached == [rule(k, s) for s in range(len(path))], (k, arm)


@pytest.mark.parametrize("m", [5, 7])
def test_typeD_walk_words_reach_the_containing_pfaffians(m):
    # Node v of the y arm of D_m, applied to the spin top, is the element
    # whose Schubert ideal is generated by the Pfaffians containing [1, v].
    g = build_gk(dynkin("D", m), m)
    s = SpinCrystal(m)
    A = generic_skew(m)
    arm_nodes = [node for node in g.nodes if node.dynkin in g.y_arm]
    assert [node.dynkin for node in arm_nodes] == list(g.y_arm) == list(range(m - 3, 0, -1))
    for node in arm_nodes:
        el = _apply_word(s, node.word, s.top())
        ideal = typeD_schubert_ideal(el, s, A)
        expected = pfaffian_ideal_containing(A, m - node.dynkin)
        assert set(ideal.generators) == set(expected.generators), node


# -- DOT export -----------------------------------------------------------------------


def test_gk_dot_counts_and_determinism():
    g = build_gk(dynkin("E", 6), 6)
    dot = gk_to_dot(g)
    assert dot == gk_to_dot(build_gk(dynkin("E", 6), 6))
    node_lines = [l for l in dot.splitlines() if "label=" in l and "->" not in l]
    edge_lines = [l for l in dot.splitlines() if "->" in l]
    assert len(node_lines) == 8
    assert len(edge_lines) == 7


def test_crystal_dot_counts():
    dot = crystal_to_dot(SpinCrystal(4))
    node_lines = [l for l in dot.splitlines() if "label=" in l and "->" not in l]
    assert len(node_lines) == 8
    dot_a = crystal_to_dot(TypeACrystal(2, 6))
    node_lines = [l for l in dot_a.splitlines() if "label=" in l and "->" not in l]
    assert len(node_lines) == 15
    assert crystal_to_dot(SpinCrystal(4)) == dot

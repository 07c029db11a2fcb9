"""Dynkin walks, crystals, Bruhat order, and DOT export."""

import itertools
import math

import pytest

from resint import ideals_equal
from resint.combinat import (
    CombinatError,
    DynkinDiagram,
    MinusculeCrystal,
    build_gk,
    crystal_to_dot,
    dynkin,
    gk_to_dot,
    t_constraint,
)
from resint.families import (
    FamilyError,
    generic_skew,
    pfaffian_ideal_containing,
    typeA_label,
    typeA_left_subset,
    typeA_right_subset,
    typeD_label,
    typeD_schubert_ideal,
)


def _apply_word(crystal, word, el):
    """The Weyl word acting on el: its last letter acts first."""
    for j in reversed(word):
        el = crystal.reflect(j, el)
    return el


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
    crystal = MinusculeCrystal(dynkin("A", 5), 2)
    for name, subset in [("p0", (1, 2)), ("p2", (1, 3)), ("p1", (2, 3)), ("p3", (1, 4))]:
        el = _apply_word(crystal, words[name], crystal.elements[0])
        assert el == typeA_label(subset, 6), name


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
    crystal = MinusculeCrystal(dynkin("A", 5), 2)
    for arm in ("y_arm", "z_arm"):
        chain = [()]
        chain += [n.word for n in g.nodes if n.dynkin in (g.u, *getattr(g, arm))]
        els = [_apply_word(crystal, w, crystal.elements[0]) for w in chain]
        for a, b in zip(els, els[1:]):
            assert crystal.bruhat_leq(a, b)


# -- type A crystal -----------------------------------------------------------------


def _typeA(k, n):
    """The crystal of the k-subsets of [1, n]: node k of A_{n-1}."""
    return MinusculeCrystal(dynkin("A", n - 1), k)


def test_typeA_cardinalities():
    for n in range(2, 9):
        for k in range(1, n):
            assert len(_typeA(k, n).elements) == math.comb(n, k)


def test_typeA_bruhat_examples():
    # Reachability is the componentwise order of the sorted subsets.
    for k, n in [(1, 4), (2, 5), (2, 6), (3, 6), (3, 7)]:
        c = _typeA(k, n)
        subsets = list(itertools.combinations(range(1, n + 1), k))
        assert sorted(c.elements) == sorted(typeA_label(S, n) for S in subsets)
        for S in subsets:
            for T in subsets:
                below = all(x <= y for x, y in zip(S, T))
                assert c.bruhat_leq(typeA_label(S, n), typeA_label(T, n)) == below, (S, T)


def test_typeA_operators_partial_inverse():
    for (k, n) in [(2, 4), (2, 5), (3, 6)]:
        c = _typeA(k, n)
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
    c = _typeA(2, 5)
    def lab(S):
        return typeA_label(S, 5)
    assert c.lowering(2, lab((1, 2))) == lab((1, 3))
    assert c.lowering(1, lab((1, 2))) is None
    assert c.raising(2, lab((1, 3))) == lab((1, 2))


# -- minuscule crystals -------------------------------------------------------------


def _spin(m):
    """The crystal of the sign vectors with an even number of minus signs:
    node m of D_m."""
    return MinusculeCrystal(dynkin("D", m), m)


def test_spin_cardinalities():
    for m in range(4, 9):
        assert len(_spin(m).elements) == 2 ** (m - 1)


def test_minuscule_cardinalities():
    for m in range(4, 9):
        assert len(MinusculeCrystal(dynkin("D", m), m - 1).elements) == 2 ** (m - 1)
        assert len(MinusculeCrystal(dynkin("D", m), 1).elements) == 2 * m
    for rank, k, size in [(6, 1, 27), (6, 6, 27), (7, 7, 56)]:
        c = MinusculeCrystal(dynkin("E", rank), k)
        assert len(c.elements) == size
        assert c.elements[0] == tuple(int(i == k) for i in c.operators)


@pytest.mark.parametrize(
    "type, rank, k", [("E", 8, 8), ("E", 8, 4), ("E", 7, 1), ("E", 6, 2), ("D", 5, 2)]
)
def test_non_minuscule_node_refused(type, rank, k):
    with pytest.raises(CombinatError, match=f"node {k} of {type}{rank} is not minuscule"):
        MinusculeCrystal(dynkin(type, rank), k)


_BUILT = [("A", 4, 2), ("A", 5, 3), ("A", 7, 4), ("A", 3, 1)]
_BUILT += [("D", m, k) for m in (4, 5, 6, 7) for k in (1, m - 1, m)]
_BUILT += [("E", 6, 1), ("E", 6, 6), ("E", 7, 7)]


@pytest.mark.parametrize("type, rank, k", _BUILT)
def test_reflect_is_the_simple_reflection(type, rank, k):
    # s_j(mu) = mu - mu_j alpha_j with alpha_j the Cartan row of node j, so
    # s_j fixes every element with mu_j = 0; a spin step that flipped the
    # last two signs moved the sign vectors whose last two signs differ.
    d = dynkin(type, rank)
    c = MinusculeCrystal(d, k)
    for j in c.operators:
        alpha = [2 if i == j else -1 if tuple(sorted((i, j))) in d.edges else 0
                 for i in range(1, rank + 1)]
        for mu in c.elements:
            image = c.reflect(j, mu)
            assert image == tuple(x - mu[j - 1] * a for x, a in zip(mu, alpha))
            if mu[j - 1] == 0:
                assert image == mu


@pytest.mark.parametrize("type, rank, k", _BUILT)
def test_bruhat_is_reachability(type, rank, k):
    c = MinusculeCrystal(dynkin(type, rank), k)
    for a in c.elements:
        reached, todo = {a}, [a]
        while todo:
            el = todo.pop()
            for j in c.operators:
                nxt = c.lowering(j, el)
                if nxt is not None and nxt not in reached:
                    reached.add(nxt)
                    todo.append(nxt)
        assert {b for b in c.elements if c.bruhat_leq(a, b)} == reached


def test_spin_operator_examples():
    s = _spin(5)
    assert s.lowering(1, typeD_label((1, -1, 1, 1, -1))) == typeD_label((-1, 1, 1, 1, -1))
    assert s.lowering(1, typeD_label((-1, 1, 1, 1, -1))) is None
    assert s.lowering(5, typeD_label((1, 1, 1, 1, 1))) == typeD_label((1, 1, 1, -1, -1))
    assert s.raising(5, typeD_label((1, 1, 1, -1, -1))) == typeD_label((1, 1, 1, 1, 1))


# Both crystals, every step, j = 0 and j = max + 1; ids are "<op>-<j>" for
# the spin crystal of D5 and "typeA-<op>-<j>" for the 2-subsets of [1, 5].
_OUTSIDE_RANGE = [
    pytest.param(crystal, crystal.elements[0], op, j, top, id=f"{prefix}{op}-{j}")
    for prefix, crystal, top in [("", _spin(5), 5), ("typeA-", _typeA(2, 5), 4)]
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
        ("lowering", 4, (0, 1, 0, 0, 0)),
        ("reflect", 1, (0, 1, 0)),
        ("raising", 2, (0, 1, 1, 0)),
        ("lowering", 1, (1, 0, 0, 1)),
        ("bruhat_leq", (0, 1, 0, 0), (0, 0, 0, 0)),
    ],
    ids=["lowering-past-n", "reflect-short", "raising-repeated", "lowering-unsorted", "bruhat-zero"],
)
def test_typeA_element_outside_the_crystal(op, j, el):
    # None is a weight of the 2-subsets of [1, 5]: a label past the rank, a
    # short one, a repeated +1, nonzero labels that do not alternate in sign,
    # and the zero weight; so no step or comparison may take it.
    with pytest.raises(CombinatError, match="is not a weight of node 2 of A4"):
        getattr(_typeA(2, 5), op)(j, el)


def test_crystal_operator_ranges_and_labels():
    a, s = _typeA(2, 5), _spin(5)
    assert a.operators == range(1, 5)
    assert s.operators == range(1, 6)
    assert a.label(typeA_label((1, 5), 5)) == "+00-"
    assert s.label(typeD_label((1, -1, 1, 1, -1))) == "+-0+0"


def test_spin_top_values():
    # The lowest weight is -omega_m for even m and -omega_{m-1} for odd m,
    # the label of the sign vector of all minus signs, with a final plus
    # for odd m; no lowering step leaves it.
    for m in range(4, 13):
        s = _spin(m)
        top = s.elements[-1]
        node = m if m % 2 == 0 else m - 1
        assert top == tuple(-int(i == node) for i in s.operators)
        assert top == typeD_label((-1,) * (m - 1) + (1 if m % 2 else -1,))
        assert all(s.lowering(j, top) is None for j in s.operators)


def test_spin_partial_inverse_exhaustive():
    for type, rank, k in _BUILT:
        c = MinusculeCrystal(dynkin(type, rank), k)
        for el in c.elements:
            for j in c.operators:
                down = c.lowering(j, el)
                if down is not None:
                    assert c.raising(j, down) == el
                up = c.raising(j, el)
                if up is not None:
                    assert c.lowering(j, up) == el


def test_spin_minus_count_parity():
    # Through the type D label map a lowering step swaps a (+, -) pair or
    # turns the last two plus signs into minus signs.
    s = _spin(6)
    signs = {typeD_label(e): e for e in itertools.product((1, -1), repeat=6)}
    for el in s.elements:
        minuses = signs[el].count(-1)
        assert minuses % 2 == 0
        for j in s.operators:
            down = s.lowering(j, el)
            if down is not None:
                assert signs[down].count(-1) - minuses == (2 if j == 6 else 0)


def test_spin_bruhat_partial_order():
    s = _spin(5)
    els = s.elements
    bottom, top = els[0], els[-1]
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
    # The type D label map takes the sign vector of a Pfaffian's index set
    # (minus on the set) to its Dynkin label; pf of the empty set is omega_m.
    assert typeD_label((1, 1, 1, 1)) == (0, 0, 0, 1)
    assert typeD_label((-1, -1, 1, 1)) == (0, -1, 0, 1)
    assert typeD_label((-1, -1, -1, -1)) == (0, 0, 0, -1)
    assert typeD_label((1, 1, 1, -1, -1)) == (0, 0, 1, 0, -1)


def test_typeA_labels():
    assert typeA_label((1, 2), 6) == (0, 1, 0, 0, 0)
    assert typeA_label((5, 6), 6) == (0, 0, 0, -1, 0)
    assert typeA_label((1, 3, 6), 6) == (1, -1, 1, 0, -1)


def test_schubert_ideal_extremes():
    s = _spin(5)
    A = generic_skew(5)
    assert len(typeD_schubert_ideal(s.elements[-1], s, A).generators) == 0
    bottom_ideal = typeD_schubert_ideal(s.elements[0], s, A)
    assert len(bottom_ideal.generators) == 15


def test_schubert_ideal_single_plus_is_containing_ideal():
    s = _spin(5)
    A = generic_skew(5)
    for j in (3, 4):
        el = typeD_label(tuple(1 if pos == 5 - j else -1 for pos in range(1, 6)))
        assert ideals_equal(
            typeD_schubert_ideal(el, s, A), pfaffian_ideal_containing(A, j)
        )


def test_schubert_ideal_rank_mismatch():
    s = _spin(4)
    A = generic_skew(5)
    with pytest.raises(FamilyError, match="crystal rank and matrix size differ"):
        typeD_schubert_ideal(s.elements[0], s, A)


# -- the walk graph reads off the families ------------------------------------


@pytest.mark.parametrize("n", range(4, 11))
def test_typeA_walk_words_reach_the_arm_subsets(n):
    # Along each arm from p0 through the branch node, the s-th node's word
    # takes the bottom k-subset to walk node s of the type A builders: the
    # arm through k+1 is the long-arm rule, the arm through k-1 the short-arm
    # rule, whichever of them is the longer y arm.
    for k in range(2, n - 1):
        g = build_gk(dynkin("A", n - 1), k)
        crystal = _typeA(k, n)
        words = {node.dynkin: node.word for node in g.nodes}
        for arm in (g.y_arm, g.z_arm):
            rule = typeA_left_subset if arm[0] == k + 1 else typeA_right_subset
            path = [()] + [words[v] for v in (g.u, *arm)]
            reached = [_apply_word(crystal, w, crystal.elements[0]) for w in path]
            assert reached == [typeA_label(rule(k, s), n) for s in range(len(path))], (k, arm)


@pytest.mark.parametrize("m", [5, 7])
def test_typeD_walk_words_reach_the_containing_pfaffians(m):
    # Node v of the y arm of D_m, applied to the lowest weight, is the
    # element whose Schubert ideal is generated by the Pfaffians containing
    # [1, v].  For odd m the longest element w_0 is not -1: it acts on the
    # diagram by swapping nodes m-1 and m, so each word is read through that
    # swap first.
    g = build_gk(dynkin("D", m), m)
    s = _spin(m)
    A = generic_skew(m)
    swap = {m - 1: m, m: m - 1} if m % 2 else {}
    arm_nodes = [node for node in g.nodes if node.dynkin in g.y_arm]
    assert [node.dynkin for node in arm_nodes] == list(g.y_arm) == list(range(m - 3, 0, -1))
    for node in arm_nodes:
        word = tuple(swap.get(j, j) for j in node.word)
        el = _apply_word(s, word, s.elements[-1])
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
    for crystal, count in [(_spin(4), 8), (_typeA(2, 6), 15), (MinusculeCrystal(dynkin("E", 6), 1), 27)]:
        dot = crystal_to_dot(crystal)
        node_lines = [l for l in dot.splitlines() if "label=" in l and "->" not in l]
        assert len(node_lines) == count
    assert crystal_to_dot(_spin(4)) == crystal_to_dot(_spin(4))

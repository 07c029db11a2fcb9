"""ADE Dynkin combinatorics: the rooted walk graph, subset and spin crystals,
Bruhat order, Pfaffian labels, and DOT export.
"""

import itertools
from collections import namedtuple
from fractions import Fraction

from .poly import PolyError


class CombinatError(PolyError):
    pass


# -- Dynkin diagrams (Bourbaki numbering) -----------------------------------


class DynkinDiagram(namedtuple("DynkinDiagram", "type rank edges")):
    __slots__ = ()

    def neighbors(self, i):
        out = []
        for a, b in self.edges:
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return sorted(out)

    def degree(self, i):
        return len(self.neighbors(i))

    def check_node(self, k):
        """Raise CombinatError unless k is a node of the diagram."""
        if not 1 <= k <= self.rank:
            raise CombinatError(f"node {k} outside the diagram")


def dynkin(type, rank):
    type = type.upper()
    if type == "A":
        if rank < 1:
            raise CombinatError("type A needs rank >= 1")
        edges = {(i, i + 1) for i in range(1, rank)}
    elif type == "D":
        if rank < 4:
            raise CombinatError("type D needs rank >= 4")
        edges = {(i, i + 1) for i in range(1, rank - 2)}
        edges |= {(rank - 2, rank - 1), (rank - 2, rank)}
    elif type == "E":
        if rank not in (6, 7, 8):
            raise CombinatError("type E needs rank 6, 7 or 8")
        chain = [1, 3, 4, 5, 6, 7, 8][: rank - 1]
        edges = {(a, b) for a, b in zip(chain, chain[1:])}
        edges.add((2, 4))
    else:
        raise CombinatError(f"unknown type {type!r}")
    return DynkinDiagram(type, rank, frozenset(tuple(sorted(e)) for e in edges))


# -- the rooted walk graph ---------------------------------------------------


# dynkin is the node's Dynkin label (None for the anchor and p0).
GkNode = namedtuple("GkNode", "name label dynkin word")
# The T-shaped walk graph: an anchor, the root coordinate node, the chain
# down to the trivalent node, and the two arms. Edges are (parent name,
# child name, Dynkin node entered along the walk); the anchor edge is the
# distinguished one and carries None.
GkGraph = namedtuple("GkGraph", "diagram k c d t x_chain u y_arm z_arm nodes edges")


def _walk(diagram, start, prev):
    """The path from `start`, entered from its neighbour `prev` (None at a
    leaf), through nodes with one way on, to the first leaf or branch node."""
    path = [start]
    while True:
        ahead = [v for v in diagram.neighbors(path[-1]) if v != prev]
        if len(ahead) != 1:
            return path
        prev = path[-1]
        path.append(ahead[0])


def build_gk(diagram, k):
    """Walk graph from the extremal node k, with per-node Weyl words."""
    diagram.check_node(k)
    if diagram.type == "A":
        x_chain, u = [], k
    elif diagram.degree(k) != 1:
        raise CombinatError(f"start node {k} is not a leaf")
    else:
        x_chain = _walk(diagram, k, None)
        u = x_chain.pop()
        if diagram.degree(u) == 1:
            raise CombinatError("no trivalent node in the diagram")
    starts = [v for v in diagram.neighbors(u) if v not in x_chain[-1:]]
    if len(starts) != 2:
        raise CombinatError("both arms must be nonempty")
    if diagram.type == "A":
        starts.reverse()  # the arm up from k is y when the arms tie
    arm_a, arm_b = (_walk(diagram, v, u) for v in starts)
    if diagram.degree(arm_a[-1]) > 1 or diagram.degree(arm_b[-1]) > 1:
        raise CombinatError("walk hit a second branch node")
    # The E6 walk is labelled in the source with the short arm (2,) as y;
    # keep that fixed orientation, otherwise order the arms so d >= t.
    if len(arm_a) < len(arm_b) and (diagram.type, diagram.rank, k) != ("E", 6, 6):
        arm_a, arm_b = arm_b, arm_a
    nodes = [GkNode("anchor", "*", None, ()), GkNode("p0", "p_()", None, ())]
    edges = [("anchor", "p0", None)]

    def extend(path, parent, word):
        """Append the nodes of `path` below `parent`, each prepending its
        Dynkin node to the Weyl word; return the last name and word."""
        for v in path:
            word = (v,) + word
            name = f"p{v}"
            nodes.append(GkNode(name, f"p_{v}", v, word))
            edges.append((parent, name, v))
            parent = name
        return parent, word

    u_name, u_word = extend(x_chain + [u], "p0", ())
    for arm in (arm_a, arm_b):
        extend(arm, u_name, u_word)
    return GkGraph(
        diagram, k, len(x_chain) + 2, len(arm_a), len(arm_b), tuple(x_chain), u,
        tuple(arm_a), tuple(arm_b), tuple(nodes), tuple(edges),
    )


def t_constraint(g):
    """1/(c-1) + 1/(d+1) + 1/(t+1) >= 1, exactly in rationals."""
    return Fraction(1, g.c - 1) + Fraction(1, g.d + 1) + Fraction(1, g.t + 1) >= 1


# -- type A subset crystal ----------------------------------------------------


def _check_operator(crystal, j):
    if j not in crystal.operators:
        raise CombinatError(f"operator index {j} outside [1, {len(crystal.operators)}]")


class TypeACrystal:
    """All k-subsets of [1, n], Bruhat-ordered componentwise."""

    def __init__(self, k, n):
        if not 1 <= k <= n:
            raise CombinatError(f"need 1 <= k <= n, got k={k}, n={n}")
        self.k = k
        self.n = n
        self.operators = range(1, n)
        self.elements = [
            tuple(s) for s in itertools.combinations(range(1, n + 1), k)
        ]

    def label(self, el):
        return "{" + ",".join(str(x) for x in el) + "}"

    def _check(self, el):
        bounds = (0, *el, self.n + 1)
        if len(el) != self.k or not all(
            isinstance(x, int) and lo < x for lo, x in zip(bounds, bounds[1:])
        ):
            raise CombinatError(f"{el!r} is not a {self.k}-subset of [1, {self.n}]")

    def bruhat_leq(self, a, b):
        self._check(a)
        self._check(b)
        return all(x <= y for x, y in zip(a, b))

    def lowering(self, j, el):
        """f_j: s_j when j is present and j+1 is not."""
        nxt = self.reflect(j, el)
        return nxt if j in el and j + 1 not in el else None

    def raising(self, j, el):
        """e_j: s_j when j+1 is present and j is not."""
        nxt = self.reflect(j, el)
        return nxt if j + 1 in el and j not in el else None

    def reflect(self, j, el):
        """Action of the simple transposition s_j on a subset."""
        self._check(el)
        _check_operator(self, j)
        has_j, has_j1 = j in el, j + 1 in el
        if has_j == has_j1:
            return el
        return tuple(sorted((j + 1 if x == j else j if x == j + 1 else x) for x in el))


# -- type D spin crystal -------------------------------------------------------


class SpinCrystal:
    """Sign sequences of length n with positive product.

    Lowering operators: f_j swaps (+,-) at (j, j+1) into (-,+) for j < n,
    and f_n turns (+,+) at (n-1, n) into (-,-).  Bruhat order is generation
    order: the all-plus sequence is the identity coset (unique bottom), and
    each lowering step raises the length by one.
    """

    def __init__(self, n):
        if n < 4:
            raise CombinatError("spin crystal needs n >= 4")
        self.n = n
        self.operators = range(1, n + 1)
        self.elements = [
            s
            for s in itertools.product((1, -1), repeat=n)
            if sum(1 for x in s if x < 0) % 2 == 0
        ]
        self._desc = {}

    def label(self, el):
        return "".join("+" if s > 0 else "-" for s in el)

    def _check(self, el):
        if len(el) != self.n:
            raise CombinatError("sign sequence of wrong length")

    def _step(self, j, el, sign):
        """s_j when the signs at (j, j+1) read (sign, -sign), or for j = n
        those at (n-1, n) read (sign, sign); otherwise None."""
        nxt = self.reflect(j, el)
        a, b = (el[j - 1], -el[j]) if j < self.n else (el[-2], el[-1])
        return nxt if a == b == sign else None

    def lowering(self, j, el):
        return self._step(j, el, 1)

    def raising(self, j, el):
        return self._step(j, el, -1)

    def _descendants(self, el):
        cached = self._desc.get(el)
        if cached is not None:
            return cached
        out = {el}
        for j in self.operators:
            nxt = self.lowering(j, el)
            if nxt is not None:
                out |= self._descendants(nxt)
        self._desc[el] = out
        return out

    def bruhat_leq(self, a, b):
        """a <= b when b is reachable from a by lowering operators."""
        self._check(a)
        self._check(b)
        return b in self._descendants(a)

    def bottom(self):
        return tuple(1 for _ in range(self.n))

    def top(self):
        """The one sink: all minus signs, with a final plus for odd n."""
        return (-1,) * (self.n - 1) + (1 if self.n % 2 else -1,)

    def reflect(self, j, el):
        """Weyl action: s_j swaps positions (j, j+1); s_n flips both signs
        at (n-1, n)."""
        self._check(el)
        _check_operator(self, j)
        s = list(el)
        if j < self.n:
            s[j - 1], s[j] = s[j], s[j - 1]
        else:
            s[-2], s[-1] = -s[-2], -s[-1]
        return tuple(s)


def pfaffian_label(el):
    """Positions carrying a minus sign; they index the Pfaffian."""
    if not all(x in (1, -1) for x in el):
        raise CombinatError("not a sign sequence")
    return tuple(i for i, s in enumerate(el, 1) if s < 0)


def index_sequence(el, m):
    """Grassmannian row labels: plus positions, then reflected minus positions."""
    plus = [i for i, s in enumerate(el, 1) if s > 0]
    minus = [i for i, s in enumerate(el, 1) if s < 0]
    return tuple(plus + sorted(2 * m + 1 - k for k in minus))


# -- DOT export ----------------------------------------------------------------


def _dot(graph, nodes, edges):
    """Byte-deterministic DOT text of a digraph. `nodes` are (name, label)
    pairs; `edges` are (tail, head, label), and an edge labelled None is
    drawn bold instead."""
    lines = [f"digraph {graph} {{"]
    for name, label in nodes:
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  "{name}" [label="{label}"];')
    for a, b, label in edges:
        attrs = "style=bold" if label is None else f'label="{label}"'
        lines.append(f'  "{a}" -> "{b}" [{attrs}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def gk_to_dot(g):
    """DOT rendering of a walk graph; the anchor edge is drawn bold."""
    return _dot("gk", [(node.name, node.label) for node in g.nodes], g.edges)


def crystal_to_dot(crystal):
    """DOT rendering of a crystal graph, edges labelled by operator index."""
    name = crystal.label
    els = sorted(crystal.elements)
    edges = []
    for el in els:
        for j in crystal.operators:
            nxt = crystal.lowering(j, el)
            if nxt is not None:
                edges.append((name(el), name(nxt), j))
    nodes = [(name(el), name(el)) for el in els]
    return _dot("crystal", nodes, edges)

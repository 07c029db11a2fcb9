"""ADE Dynkin combinatorics: the rooted walk graph, minuscule crystals with
their Bruhat order, and DOT export.
"""

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


# -- minuscule crystals ---------------------------------------------------------


class MinusculeCrystal:
    """The crystal of the minuscule representation of node k: the weights,
    as Dynkin labels (mu_1, ..., mu_r), of the Weyl orbit of omega_k.

    The step along node j is the Weyl reflection s_j(mu) = mu - mu_j alpha_j,
    alpha_j row j of the Cartan matrix: f_j takes it where mu_j = 1 and e_j
    where mu_j = -1.  Every label of a minuscule orbit lies in {-1, 0, 1}
    (Green, Combinatorics of Minuscule Representations, 2013), so the
    breadth-first search down from omega_k refuses a node whose orbit leaves
    that range.  Bruhat order is reachability along the f_j: omega_k is the
    unique bottom, ``elements[0]``, and the lowest weight the unique top,
    ``elements[-1]``.
    """

    def __init__(self, diagram, k):
        diagram.check_node(k)
        self.diagram = diagram
        self.k = k
        self.operators = range(1, diagram.rank + 1)
        # alpha_j is 2 at node j and -1 at each of its neighbours.
        self._near = {j: diagram.neighbors(j) for j in self.operators}
        top = tuple(int(i == k) for i in self.operators)
        self.elements = [top]
        # Each weight mu = omega_k - sum c_i alpha_i, keyed to its c: the
        # lowering steps along each node that reach it from omega_k.
        self._steps = {top: (0,) * diagram.rank}
        for el in self.elements:
            for j in self.operators:
                if el[j - 1] != 1:
                    continue
                nxt = self._reflect(j, el)
                if nxt in self._steps:
                    continue
                if max(nxt) > 1 or min(nxt) < -1:
                    raise CombinatError(
                        f"node {k} of {diagram.type}{diagram.rank} is not minuscule"
                    )
                steps = list(self._steps[el])
                steps[j - 1] += 1
                self._steps[nxt] = tuple(steps)
                self.elements.append(nxt)

    def label(self, el):
        """The node name of `el` in a DOT file: its labels as -, 0, +."""
        return "".join("-0+"[x + 1] for x in el)

    def _check(self, el):
        if el not in self._steps:
            raise CombinatError(
                f"{el!r} is not a weight of node {self.k} of"
                f" {self.diagram.type}{self.diagram.rank}"
            )

    def _reflect(self, j, el):
        mu = el[j - 1]
        out = list(el)
        out[j - 1] = -mu
        for i in self._near[j]:
            out[i - 1] += mu
        return tuple(out)

    def reflect(self, j, el):
        """The Weyl reflection s_j(mu) = mu - mu_j alpha_j."""
        self._check(el)
        if j not in self.operators:
            raise CombinatError(f"operator index {j} outside [1, {len(self.operators)}]")
        return self._reflect(j, el)

    def lowering(self, j, el):
        """f_j: s_j where mu_j = 1, else None."""
        nxt = self.reflect(j, el)
        return nxt if el[j - 1] == 1 else None

    def raising(self, j, el):
        """e_j: s_j where mu_j = -1, else None."""
        nxt = self.reflect(j, el)
        return nxt if el[j - 1] == -1 else None

    def bruhat_leq(self, a, b):
        """a <= b when b is reachable from a by lowering steps.  On a
        minuscule orbit that holds exactly when a - b is a sum of simple
        roots (Proctor, Europ. J. Combin. 5, 1984), so when b's steps from
        omega_k cover a's along every node."""
        self._check(a)
        self._check(b)
        return all(x <= y for x, y in zip(self._steps[a], self._steps[b]))


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
    els = crystal.elements
    edges = []
    for el in els:
        for j in crystal.operators:
            nxt = crystal.lowering(j, el)
            if nxt is not None:
                edges.append((name(el), name(nxt), j))
    nodes = [(name(el), name(el)) for el in els]
    return _dot("crystal", nodes, edges)

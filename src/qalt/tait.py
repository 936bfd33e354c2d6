"""Checkerboard graphs and the spanning-tree polynomial.

A connected diagram's faces are two-colored; the black faces become
vertices and every crossing contributes one signed edge. An edge is
positive when the black regions occupy the corners between slots 1-2
and 3-0 of its crossing (the pair swept clockwise from the over-strand),
negative otherwise; the white graph is the planar dual and carries the
opposite signs. black_graph() builds the black graph, which is all the
certification search and its replay read; checkerboard() builds both
from one face coloring.

gamma(G) sums, over spanning trees, the product of one weight per edge
determined by the edge's activity. With the edges totally ordered, an
edge inside the tree is internally active when it is the order-minimum
of the cut its removal creates, and an edge outside is externally
active when it is the minimum of the cycle its insertion creates.
"""

from __future__ import annotations

from ._util import _Record, _join, _root, bareiss_det
from .diagram import Diagram, DisconnectedDiagram
from .laurent import HalfLaurent


# weight of each activity state, as (doubled A-exponent, coefficient):
# in-tree active, in-tree inactive, external active, external inactive
_WEIGHTS = {"L": (-6, -1), "D": (2, 1), "l": (6, -1), "d": (-2, 1),
            "Lbar": (6, -1), "Dbar": (-2, 1), "lbar": (-6, -1), "dbar": (2, 1)}


def _forest(n: int, edges) -> list:
    """Union-find parent list of the graph on n vertices with these edges."""
    parent = list(range(n))
    for u, v, _ in edges:
        _join(parent, u, v)
    return parent


def _connected(n: int, edges) -> bool:
    """Whether these edges join all n vertices. Fewer than n - 1 edges
    cannot, which is answered before anything is made per vertex."""
    if len(edges) < n - 1:
        return False
    parent = list(range(n))
    parts = n
    for u, v, _ in edges:
        parts -= _join(parent, u, v)
    return parts == 1


class SignedPlanarGraph(_Record):
    """Connected multigraph with signed, totally ordered edges.

    edges[i] = (u, v, sign); the list position is the edge order.
    black_graph() and checkerboard() put crossing i's edge at edges[i]
    in both graphs of a diagram."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges):
        if vertex_count < 1:
            raise ValueError("need at least one vertex")
        clean = []
        for u, v, s in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError("edge endpoint out of range: %r" % ((u, v, s),))
            if s not in (1, -1):
                raise ValueError("edge sign must be +1 or -1")
            clean.append((u, v, s))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(clean))

    def is_connected(self) -> bool:
        return _connected(self.vertex_count, self.edges)

    def _edge(self, i: int) -> tuple:
        """Edge i, once i is known to be an edge index."""
        if not isinstance(i, int) or not 0 <= i < len(self.edges):
            raise ValueError("no edge %r" % (i,))
        return self.edges[i]


def _tait_graphs(d: Diagram, both: bool) -> tuple:
    """(black graph, white graph) of a connected diagram, the white one
    None unless both are asked for."""
    if not d.is_connected():
        raise DisconnectedDiagram("checkerboard needs a connected diagram")
    if not d.crossings:
        unknot = SignedPlanarGraph(1, ())
        return unknot, (unknot if both else None)
    nfaces, corners, colors = d.face_incidence()
    d.check_planar(nfaces)
    # the face at the least port is colored 0, so a tie goes to class 1
    black = 0 if 2 * sum(colors) < nfaces else 1

    # vertex numbers run in face order within each class; the two
    # corners of one class sit opposite each other, and an edge of the
    # graph of either color is positive when its corners are 1 and 3
    index = []
    size = [0, 0]
    for c in colors:
        index.append(size[c])
        size[c] += 1

    def graph(color):
        return SignedPlanarGraph(size[color], [
            (index[c1], index[c3], 1) if colors[c1] == color
            else (index[c0], index[c2], -1)
            for c0, c1, c2, c3 in corners])

    return graph(black), (graph(1 - black) if both else None)


def black_graph(d: Diagram) -> SignedPlanarGraph:
    """The black graph of a connected diagram.

    The black class is the larger face class; on a tie, the class not
    containing the face at the least port. The crossing-free unknot
    yields a single-vertex graph."""
    return _tait_graphs(d, False)[0]


def checkerboard(d: Diagram) -> tuple:
    """(black graph, white graph) of a connected diagram, each the
    other's planar dual with negated signs; see black_graph."""
    return _tait_graphs(d, True)


def spanning_trees(g: SignedPlanarGraph):
    """Yield every spanning tree as a frozenset of edge indices."""
    if not g.is_connected():
        raise ValueError("graph is not connected")
    n = g.vertex_count
    edges = g.edges
    m = len(edges)

    # depth first with an explicit stack, so a long path cannot exhaust
    # the recursion limit: the branch that takes edge i is pushed last
    # and so enumerated first
    stack = [(0, list(range(n)), [], n)]
    while stack:
        i, parent, chosen, parts = stack.pop()
        if parts == 1:
            yield frozenset(chosen)
            continue
        if i == m or m - i < parts - 1:
            continue
        # skip branch: still feasible only if the rest can connect
        if _connected(n, [edges[j] for j in chosen] + list(edges[i + 1:])):
            stack.append((i + 1, parent, chosen, parts))
        u, v, _ = edges[i]
        child = parent[:]
        if _join(child, u, v):
            stack.append((i + 1, child, chosen + [i], parts - 1))


def activity(g: SignedPlanarGraph, tree: frozenset, e: int) -> str:
    """Activity state of edge e for the given spanning tree.

    Returns one of L/D/l/d, with a "bar" suffix on negative edges:
    capital letters are in-tree, lowercase out-of-tree; L/l mean active.
    An in-tree edge is active when no earlier edge crosses the cut left
    by removing it. An outside edge is active when no earlier tree edge
    lies on its cycle, which is when the later tree edges alone join
    its ends (a loop's cycle is itself)."""
    edges = g.edges
    u, v, sign = g._edge(e)
    if e in tree:
        parent = _forest(g.vertex_count,
                         [edges[j] for j in tree if j != e])
        crossed = any(_root(parent, a) != _root(parent, b)
                      for a, b, _ in edges[:e])
        state = "D" if crossed else "L"
    else:
        parent = _forest(g.vertex_count,
                         [edges[j] for j in tree if j > e])
        state = "l" if _root(parent, u) == _root(parent, v) else "d"
    return state + ("" if sign > 0 else "bar")


def gamma(g: SignedPlanarGraph) -> HalfLaurent:
    """Spanning-tree expansion over activity weights; 1 for the edgeless
    single vertex."""
    terms = {}
    for tree in spanning_trees(g):
        # each tree contributes one monomial: exponents add, signs multiply
        e2, c = 0, 1
        for e in range(len(g.edges)):
            de2, dc = _WEIGHTS[activity(g, tree, e)]
            e2 += de2
            c *= dc
        terms[e2] = terms.get(e2, 0) + c
    return HalfLaurent(terms)


def goeritz_det(g: SignedPlanarGraph) -> int:
    """|det| of the Goeritz minor: off-diagonal (i,j) is minus the sum of
    signs of i-j edges, diagonals make rows sum to zero, first row and
    column deleted. Loops are ignored. Connectivity is checked first,
    before the n x n matrix is made."""
    if not g.is_connected():
        raise ValueError("graph is not connected")
    return abs(_goeritz_minor_det(g.vertex_count, g.edges))


def _goeritz_minor_det(n: int, edges) -> int:
    """The signed Goeritz minor of the graph on n vertices with these
    edges, connected or not: a piece without vertex 0 has rows summing
    to zero in the minor, so a disconnected graph gets 0."""
    m = [[0] * n for _ in range(n)]
    for u, v, s in edges:
        if u != v:
            m[u][v] -= s
            m[v][u] -= s
            m[u][u] += s
            m[v][v] += s
    return bareiss_det([row[1:] for row in m[1:]])


def smoothing_dets(g: SignedPlanarGraph) -> tuple:
    """(det, pairs): the Goeritz determinant of g, and an iterator that
    yields, for each edge e in order, (det0, det1), the Goeritz
    determinants of the 0- and 1-smoothing at e's crossing, 0 for a
    split smoothing. Each pair is solved when it is read.

    The 0-smoothing joins slots (0,1) and (2,3), merging the faces at
    corners 1 and 3, which are black exactly when e is positive: it
    contracts a positive edge and deletes a negative one. The signed
    minor is the matrix-tree sum over spanning trees of the product of
    their edge signs (Kirchhoff), so splitting it by the trees that hold
    e gives

        minor(G) = minor(G - e) + s_e * minor(G / e),

    and each pair costs one minor, that of the deletion. A loop is in no
    tree and leaves the minor unchanged, and deleting an isthmus leaves
    a disconnected graph, of minor 0: both nugatory crossings get 0 for
    their split smoothing from the identity itself."""
    n, edges = g.vertex_count, g.edges
    whole = _goeritz_minor_det(n, edges)

    def pairs():
        for e, (_, _, sign) in enumerate(edges):
            deleted = _goeritz_minor_det(n, edges[:e] + edges[e + 1:])
            merged, separated = abs(whole - deleted), abs(deleted)
            yield (merged, separated) if sign > 0 else (separated, merged)

    return abs(whole), pairs()


def _digits(word: str) -> bool:
    """Whether word is ASCII digits only; int() alone would also take a
    sign, underscores and the digits of other scripts."""
    return word.isascii() and word.isdigit()


def parse_edgelist(text: str) -> SignedPlanarGraph:
    """Lines "u v +" / "u v -" with 0-based vertices written in ASCII
    digits; blank lines and "#" comments allowed. An optional first line
    "vertices N", N >= 1, forces the vertex count (needed for isolated
    vertices)."""
    edges = []
    forced = None
    top = -1
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if edges or forced is not None:
                raise ValueError("\"vertices N\" must be the first line: %r"
                                 % raw)
            if len(parts) != 2 or not _digits(parts[1]) or int(parts[1]) < 1:
                raise ValueError("want \"vertices N\" with N >= 1: %r" % raw)
            forced = int(parts[1])
            continue
        if (len(parts) != 3 or parts[2] not in ("+", "-")
                or not (_digits(parts[0]) and _digits(parts[1]))):
            raise ValueError("bad edge line %r" % raw)
        u, v = int(parts[0]), int(parts[1])
        top = max(top, u, v)
        edges.append((u, v, 1 if parts[2] == "+" else -1))
    count = forced if forced is not None else top + 1
    if count < 1:
        count = 1
    return SignedPlanarGraph(count, tuple(edges))

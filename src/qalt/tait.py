"""Checkerboard graphs and the spanning-tree polynomial.

A connected diagram's faces are two-colored; the black faces become
vertices and every crossing contributes one signed edge. An edge is
positive when the black regions occupy the corners between slots 1-2
and 3-0 of its crossing (the pair swept clockwise from the over-strand),
negative otherwise; the white graph is the planar dual and carries the
opposite signs. black_graph() builds the black graph alone, which is
all the certification search and its replay read; dual() builds the
white graph from it when first asked, and checkerboard() returns both.
Graphs read off a diagram skip the edge checks of SignedPlanarGraph,
and goeritz_det() skips their connectivity check: a connected diagram
has connected checkerboard graphs.

gamma(G) sums, over spanning trees, the product of one weight per edge
determined by the edge's activity. With the edges totally ordered, an
edge inside the tree is internally active when it is the order-minimum
of the cut its removal creates, and an edge outside is externally
active when it is the minimum of the cycle its insertion creates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ._util import bareiss_det
from .diagram import Diagram, DisconnectedDiagram
from .laurent import HalfLaurent, monomial_quotient


class NoEmbedding(ValueError):
    """The operation needs the planar embedding of a diagram-built graph."""


class LoopOrIsthmus(ValueError):
    """The skein identity needs an edge that is neither."""


# weight of each activity state, as (doubled A-exponent, coefficient):
# in-tree active, in-tree inactive, external active, external inactive
_WEIGHTS = {"L": (-6, -1), "D": (2, 1), "l": (6, -1), "d": (-2, 1),
            "Lbar": (6, -1), "Dbar": (-2, 1), "lbar": (-6, -1), "dbar": (2, 1)}


def _root(parent: list, x: int) -> int:
    """Root of x in a union-find parent list, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _join(parent: list, u: int, v: int) -> bool:
    """Merge the sets of u and v; whether they were apart."""
    ru, rv = _root(parent, u), _root(parent, v)
    if ru == rv:
        return False
    parent[ru] = rv
    return True


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


def _contracted(n: int, edges, i: int) -> list:
    """The edges after contracting non-loop edge i of a graph on n
    vertices: its higher end becomes its lower one, and the vertices
    above close the gap."""
    u, v, _ = edges[i]
    keep, gone = min(u, v), max(u, v)
    remap = [w - (w > gone) for w in range(n)]
    remap[gone] = keep
    return [(remap[a], remap[b], s)
            for j, (a, b, s) in enumerate(edges) if j != i]


@dataclass(frozen=True)
class SignedPlanarGraph:
    """Connected multigraph with signed, totally ordered edges.

    edges[i] = (u, v, sign); the list position is the edge order.
    black_graph() and checkerboard() put crossing i's edge at edges[i]
    in both graphs and attach the planar dual, which is what dual()
    returns; black_graph() attaches a function that builds it."""

    vertex_count: int
    edges: tuple
    _dual: "SignedPlanarGraph" = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("need at least one vertex")
        clean = []
        for u, v, s in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError("edge endpoint out of range: %r" % ((u, v, s),))
            if s not in (1, -1):
                raise ValueError("edge sign must be +1 or -1")
            clean.append((u, v, s))
        object.__setattr__(self, "edges", tuple(clean))

    def edge_count(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        return _connected(self.vertex_count, self.edges)

    def is_loop(self, i: int) -> bool:
        u, v, _ = self.edges[i]
        return u == v

    def is_isthmus(self, i: int) -> bool:
        if self.is_loop(i):
            return False
        parent = _forest(self.vertex_count,
                         self.edges[:i] + self.edges[i + 1:])
        u, v, _ = self.edges[i]
        return _root(parent, u) != _root(parent, v)

    def delete(self, i: int) -> "SignedPlanarGraph":
        edges = self.edges[:i] + self.edges[i + 1:]
        return SignedPlanarGraph(self.vertex_count, edges)

    def contract(self, i: int) -> "SignedPlanarGraph":
        if self.is_loop(i):
            raise LoopOrIsthmus("cannot contract a loop")
        return SignedPlanarGraph(
            self.vertex_count - 1,
            _contracted(self.vertex_count, self.edges, i))

    def reorder(self, perm) -> "SignedPlanarGraph":
        """Same graph with edges listed in the given permutation order."""
        if sorted(perm) != list(range(len(self.edges))):
            raise ValueError("not a permutation of the edge indices")
        return SignedPlanarGraph(
            self.vertex_count, tuple(self.edges[i] for i in perm))


def _embedded(vertex_count: int, edges: tuple, dual) -> SignedPlanarGraph:
    """A graph read off a diagram, whose edges need no validation; dual
    is its planar dual, or a function that builds the dual from it."""
    g = object.__new__(SignedPlanarGraph)
    object.__setattr__(g, "vertex_count", vertex_count)
    object.__setattr__(g, "edges", edges)
    object.__setattr__(g, "_dual", dual)
    return g


def black_graph(d: Diagram) -> SignedPlanarGraph:
    """The black graph of a connected diagram; dual() builds the white
    graph from it on first use.

    The black class is the larger face class; on a tie, the class not
    containing the face at the least port. The crossing-free unknot
    yields a single-vertex graph."""
    if not d.is_connected():
        raise DisconnectedDiagram("checkerboard needs a connected diagram")
    if not d.crossings:
        return _embedded(1, (), lambda g: _embedded(1, (), g))
    nfaces, corners, colors = d.face_incidence()
    if nfaces != len(d.crossings) + 2:
        raise NoEmbedding("face count %d is not crossings+2" % nfaces)
    # the face at the least port is colored 0, so a tie goes to class 1
    black = 0 if 2 * sum(colors) < nfaces else 1

    # vertex numbers run in face order within each class; the two
    # corners of one class sit opposite each other, and the black edge
    # is positive when they are corners 1 and 3
    index = []
    size = [0, 0]
    for c in colors:
        index.append(size[c])
        size[c] += 1

    def white(g):
        return _embedded(size[1 - black], tuple([
            (index[c0], index[c2], -1) if colors[c1] == black
            else (index[c1], index[c3], 1)
            for c0, c1, c2, c3 in corners]), g)

    return _embedded(size[black], tuple([
        (index[c1], index[c3], 1) if colors[c1] == black
        else (index[c0], index[c2], -1)
        for c0, c1, c2, c3 in corners]), white)


def checkerboard(d: Diagram):
    """(black graph, white graph) of a connected diagram, each the
    other's dual(); see black_graph."""
    g = black_graph(d)
    return g, dual(g)


def dual(g: SignedPlanarGraph) -> SignedPlanarGraph:
    """Planar dual with negated signs; known only for diagram-built graphs."""
    w = g._dual
    if w is None:
        raise NoEmbedding("graph carries no embedding")
    if not isinstance(w, SignedPlanarGraph):
        w = w(g)
        object.__setattr__(g, "_dual", w)
    return w


def spanning_trees(g: SignedPlanarGraph):
    """Yield every spanning tree as a frozenset of edge indices."""
    if not g.is_connected():
        raise ValueError("graph is not connected")
    n = g.vertex_count
    edges = g.edges
    m = len(edges)

    def rec(i, parent, chosen, parts):
        if parts == 1:
            yield frozenset(chosen)
            return
        if i == m or m - i < parts - 1:
            return
        u, v, _ = edges[i]
        child = parent[:]
        if _join(child, u, v):
            yield from rec(i + 1, child, chosen + [i], parts - 1)
        # skip branch: still feasible only if the rest can connect
        if _connected(n, [edges[j] for j in chosen] + list(edges[i + 1:])):
            yield from rec(i + 1, parent, chosen, parts)

    yield from rec(0, list(range(n)), [], n)


def kirchhoff_count(g: SignedPlanarGraph) -> int:
    """Matrix-tree number of spanning trees (signs ignored): the Goeritz
    minor of the graph with every edge positive is its Laplacian minor."""
    return _goeritz_minor_det(g.vertex_count,
                              [(u, v, 1) for u, v, _ in g.edges])


def activity(g: SignedPlanarGraph, tree: frozenset, e: int) -> str:
    """Activity state of edge e for the given spanning tree.

    Returns one of L/D/l/d, with a "bar" suffix on negative edges:
    capital letters are in-tree, lowercase out-of-tree; L/l mean active.
    An in-tree edge is active when no earlier edge crosses the cut left
    by removing it. An outside edge is active when no earlier tree edge
    lies on its cycle, which is when the later tree edges alone join
    its ends (a loop's cycle is itself)."""
    edges = g.edges
    u, v, sign = edges[e]
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
    if not g.is_connected():
        raise ValueError("graph is not connected")
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


def gamma_skein_check(g: SignedPlanarGraph, e: int) -> bool:
    """Deletion-contraction identity for the last edge in the order:

        gamma(G) == A^(-s) * gamma(G - e) + A^(s) * gamma(G / e)

    where s is the sign of e. Requires e to be last and neither a loop
    nor an isthmus."""
    if e != len(g.edges) - 1:
        raise ValueError("the tested edge must be last in the edge order")
    if g.is_loop(e) or g.is_isthmus(e):
        raise LoopOrIsthmus("edge %d is a loop or an isthmus" % e)
    s = g.edges[e][2]
    lhs = gamma(g)
    rhs = (gamma(g.delete(e)).shift2(-2 * s)
           + gamma(g.contract(e)).shift2(2 * s))
    return lhs == rhs


def goeritz_det(g: SignedPlanarGraph) -> int:
    """|det| of the Goeritz minor: off-diagonal (i,j) is minus the sum of
    signs of i-j edges, diagonals make rows sum to zero, first row and
    column deleted. Loops are ignored. A graph read off a diagram is
    connected, so only other graphs are checked."""
    if g._dual is None and not g.is_connected():
        raise ValueError("graph is not connected")
    return _goeritz_minor_det(g.vertex_count, g.edges)


def _goeritz_minor_det(n: int, edges) -> int:
    """goeritz_det of the graph on n vertices with these edges, connected
    or not: a piece without vertex 0 has rows summing to zero in the
    minor, so a disconnected graph gets 0."""
    m = [[0] * n for _ in range(n)]
    for u, v, s in edges:
        if u != v:
            m[u][v] -= s
            m[v][u] -= s
            m[u][u] += s
            m[v][v] += s
    return abs(bareiss_det([row[1:] for row in m[1:]]))


def smoothing_dets(g: SignedPlanarGraph, e: int) -> tuple:
    """(det0, det1): Goeritz determinants of the 0- and 1-smoothing at the
    crossing of black-graph edge e, 0 for a split smoothing.

    The 0-smoothing joins slots (0,1) and (2,3), merging the faces at
    corners 1 and 3, which are black exactly when e is positive: it
    contracts a positive edge and deletes a negative one. A loop or an
    isthmus is a nugatory crossing, whose face-merging or
    face-separating smoothing respectively is split: a loop gets 0
    without contracting it, and an isthmus gets 0 because deleting it
    disconnects the graph."""
    u, v, sign = g.edges[e]
    rest = g.edges[:e] + g.edges[e + 1:]
    separated = _goeritz_minor_det(g.vertex_count, rest)
    if u == v:
        merged = 0
    else:
        merged = _goeritz_minor_det(
            g.vertex_count - 1, _contracted(g.vertex_count, g.edges, e))
    return (merged, separated) if sign > 0 else (separated, merged)


def tutte(g: SignedPlanarGraph) -> dict:
    """Tutte polynomial of the underlying unsigned graph as {(i, j): c},
    by deletion/contraction of the first edge."""
    if not g.edges:
        return {(0, 0): 1}
    if g.is_loop(0):
        return {(i, j + 1): c for (i, j), c in tutte(g.delete(0)).items()}
    if g.is_isthmus(0):
        return {(i + 1, j): c for (i, j), c in tutte(g.contract(0)).items()}
    out = tutte(g.delete(0))
    for key, c in tutte(g.contract(0)).items():
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


@dataclass(frozen=True)
class TutteCheck:
    sign: int
    r2: int  # doubled exponent of the matching monomial t^r
    mirrored: bool

    @property
    def r(self) -> Fraction:
        return Fraction(self.r2, 2)


def tutte_check(g: SignedPlanarGraph, jones: HalfLaurent):
    """Search for sign and t^r with jones == sign * t^r * chi, where chi
    is the Tutte polynomial at (-t, -1/t); the mirrored substitution
    (-1/t, -t) is tried second. None means no monomial match."""
    chi = tutte(g)

    def specialize(flip):
        terms = {}
        for (i, j), c in chi.items():
            e = (i - j) if not flip else (j - i)
            coeff = c if (i + j) % 2 == 0 else -c
            terms[2 * e] = terms.get(2 * e, 0) + coeff
        return HalfLaurent(terms)

    for flip in (False, True):
        q = monomial_quotient(jones, specialize(flip))
        if q is not None:
            return TutteCheck(sign=q[0], r2=q[1], mirrored=flip)
    return None


def parse_edgelist(text: str) -> SignedPlanarGraph:
    """Lines "u v +" / "u v -" with 0-based vertices; blank lines and
    "#" comments allowed. An optional first line "vertices N", N >= 1,
    forces the vertex count (needed for isolated vertices)."""
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
            if (len(parts) != 2 or not parts[1].isdecimal()
                    or int(parts[1]) < 1):
                raise ValueError("want \"vertices N\" with N >= 1: %r" % raw)
            forced = int(parts[1])
            continue
        if len(parts) != 3 or parts[2] not in ("+", "-"):
            raise ValueError("bad edge line %r" % raw)
        u, v = int(parts[0]), int(parts[1])
        if u < 0 or v < 0:
            raise ValueError("vertices are 0-based nonnegative: %r" % raw)
        top = max(top, u, v)
        edges.append((u, v, 1 if parts[2] == "+" else -1))
    count = forced if forced is not None else top + 1
    if count < 1:
        count = 1
    return SignedPlanarGraph(count, tuple(edges))

"""Checkerboard graphs and the spanning-tree polynomial.

A connected diagram's faces are two-colored; the black faces become
vertices and every crossing contributes one signed edge. An edge is
positive when the black regions occupy the corners between slots 1-2
and 3-0 of its crossing (the pair swept clockwise from the over-strand),
negative otherwise; the white graph is the planar dual and carries the
opposite signs.

gamma(G) sums, over spanning trees, the product of one weight per edge
determined by the edge's activity. With the edges totally ordered, an
edge inside the tree is internally active when it is the order-minimum
of the cut its removal creates, and an edge outside is externally
active when it is the minimum of the cycle its insertion creates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ._util import DisjointSet, bareiss_det
from .diagram import Diagram, DisconnectedDiagram
from .laurent import HalfLaurent, monomial_quotient


class NoEmbedding(ValueError):
    """The operation needs the planar embedding of a diagram-built graph."""


class LoopOrIsthmus(ValueError):
    """The skein identity needs an edge that is neither."""


# weight of each activity state, as (doubled A-exponent, coefficient):
# in-tree active, in-tree inactive, external active, external inactive
_WEIGHTS_POS = {"L": (-6, -1), "D": (2, 1), "l": (6, -1), "d": (-2, 1)}
_WEIGHTS_NEG = {"Lbar": (6, -1), "Dbar": (-2, 1), "lbar": (-6, -1), "dbar": (2, 1)}


@dataclass(frozen=True)
class SignedPlanarGraph:
    """Connected multigraph with signed, totally ordered edges.

    edges[i] = (u, v, sign); the list position is the edge order.
    checkerboard() puts crossing i's edge at edges[i] in both graphs and
    attaches the planar dual, which is what dual() returns."""

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
        dsu = DisjointSet()
        for v in range(self.vertex_count):
            dsu.find(v)
        for u, v, _ in self.edges:
            dsu.union(u, v)
        return dsu.count() == 1

    def is_loop(self, i: int) -> bool:
        u, v, _ = self.edges[i]
        return u == v

    def is_isthmus(self, i: int) -> bool:
        if self.is_loop(i):
            return False
        dsu = DisjointSet()
        for v in range(self.vertex_count):
            dsu.find(v)
        for j, (u, v, _) in enumerate(self.edges):
            if j != i:
                dsu.union(u, v)
        u, v, _ = self.edges[i]
        return dsu.find(u) != dsu.find(v)

    def delete(self, i: int) -> "SignedPlanarGraph":
        edges = self.edges[:i] + self.edges[i + 1:]
        return SignedPlanarGraph(self.vertex_count, edges)

    def contract(self, i: int) -> "SignedPlanarGraph":
        u, v, _ = self.edges[i]
        if u == v:
            raise LoopOrIsthmus("cannot contract a loop")
        keep, gone = min(u, v), max(u, v)

        def remap(w):
            if w == gone:
                w = keep
            return w - 1 if w > gone else w

        edges = tuple((remap(a), remap(b), s)
                      for j, (a, b, s) in enumerate(self.edges) if j != i)
        return SignedPlanarGraph(self.vertex_count - 1, edges)

    def reorder(self, perm) -> "SignedPlanarGraph":
        """Same graph with edges listed in the given permutation order."""
        if sorted(perm) != list(range(len(self.edges))):
            raise ValueError("not a permutation of the edge indices")
        return SignedPlanarGraph(
            self.vertex_count, tuple(self.edges[i] for i in perm))


def checkerboard(d: Diagram):
    """(black graph, white graph) of a connected diagram.

    The black class is the larger face class; on a tie, the class not
    containing the face at the least port. The crossing-free unknot
    yields a pair of single-vertex graphs."""
    if not d.is_connected():
        raise DisconnectedDiagram("checkerboard needs a connected diagram")
    if not d.crossings:
        k1 = SignedPlanarGraph(1, ())
        k2 = SignedPlanarGraph(1, ())
        object.__setattr__(k1, "_dual", k2)
        object.__setattr__(k2, "_dual", k1)
        return k1, k2

    n = len(d.crossings)
    nfaces, corners, sides = d.face_incidence()
    if nfaces != n + 2:
        raise NoEmbedding("face count %d is not crossings+2" % nfaces)

    # two-color faces: arcs with both sides in one face cannot happen in
    # a planar 4-valent shadow with this face count, but stay defensive
    adj = [[] for _ in range(nfaces)]
    for lab, f, g in sides:
        if f == g:
            raise NoEmbedding("arc %d does not separate two faces" % lab)
        adj[f].append(g)
        adj[g].append(f)
    color = [None] * nfaces
    color[0] = 0
    stack = [0]
    reached = 1
    while stack:
        fi = stack.pop()
        for g in adj[fi]:
            if color[g] is None:
                color[g] = 1 - color[fi]
                reached += 1
                stack.append(g)
            elif color[g] == color[fi]:
                raise NoEmbedding("face classes are not two-colorable")
    if reached != nfaces:
        raise NoEmbedding("face adjacency is not connected")

    counts = [color.count(0), color.count(1)]
    if counts[0] != counts[1]:
        black = 0 if counts[0] > counts[1] else 1
    else:
        # face 0 holds the least port (0, 0)
        black = 1 - color[0]

    # vertex numbers run in face order within each class; the two
    # corners of one class sit opposite each other, and the edge is
    # positive when they are corners 1 and 3
    index = []
    size = [0, 0]
    for c in color:
        index.append(size[c])
        size[c] += 1
    black_edges = []
    white_edges = []
    for c0, c1, c2, c3 in corners:
        odd = (index[c1], index[c3])
        even = (index[c0], index[c2])
        if color[c1] == black:
            black_edges.append(odd + (1,))
            white_edges.append(even + (-1,))
        else:
            black_edges.append(even + (-1,))
            white_edges.append(odd + (1,))
    g_black = SignedPlanarGraph(size[black], tuple(black_edges))
    g_white = SignedPlanarGraph(size[1 - black], tuple(white_edges))
    object.__setattr__(g_black, "_dual", g_white)
    object.__setattr__(g_white, "_dual", g_black)
    return g_black, g_white


def dual(g: SignedPlanarGraph) -> SignedPlanarGraph:
    """Planar dual with negated signs; known only for diagram-built graphs."""
    if g._dual is None:
        raise NoEmbedding("graph carries no embedding")
    return g._dual


def spanning_trees(g: SignedPlanarGraph):
    """Yield every spanning tree as a frozenset of edge indices."""
    if not g.is_connected():
        raise ValueError("graph is not connected")
    n = g.vertex_count
    m = len(g.edges)

    def rec(i, dsu, chosen, parts):
        if parts == 1:
            yield frozenset(chosen)
            return
        if i == m or m - i < parts - 1:
            return
        u, v, _ = g.edges[i]
        if dsu.find(u) != dsu.find(v):
            child = dsu.copy()
            child.union(u, v)
            yield from rec(i + 1, child, chosen + [i], parts - 1)
        # skip branch: still feasible only if the rest can connect
        rest = dsu.copy()
        for j in range(i + 1, m):
            a, b, _ = g.edges[j]
            rest.union(a, b)
        if rest.count() == 1:
            yield from rec(i + 1, dsu, chosen, parts)

    dsu = DisjointSet()
    for v in range(n):
        dsu.find(v)
    yield from rec(0, dsu, [], n)


def kirchhoff_count(g: SignedPlanarGraph) -> int:
    """Matrix-tree number of spanning trees (signs ignored)."""
    n = g.vertex_count
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for u, v, _ in g.edges:
        if u == v:
            continue
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    minor = [row[1:] for row in lap[1:]]
    return bareiss_det(minor)


def _tree_components(g, tree, without):
    dsu = DisjointSet()
    for v in range(g.vertex_count):
        dsu.find(v)
    for j in tree:
        if j != without:
            u, v, _ = g.edges[j]
            dsu.union(u, v)
    return dsu


def activity(g: SignedPlanarGraph, tree: frozenset, e: int) -> str:
    """Activity state of edge e for the given spanning tree.

    Returns one of L/D/l/d, with a "bar" suffix on negative edges:
    capital letters are in-tree, lowercase out-of-tree; L/l mean active."""
    u, v, sign = g.edges[e]
    if e in tree:
        dsu = _tree_components(g, tree, e)
        cut = [j for j, (a, b, _) in enumerate(g.edges)
               if a != b and dsu.find(a) != dsu.find(b)]
        state = "L" if min(cut) == e else "D"
    else:
        if u == v:
            cycle = [e]
        else:
            # fundamental cycle: path in the tree between u and v, plus e
            parent = {u: None}
            frontier = [u]
            adj = {}
            for j in tree:
                a, b, _ = g.edges[j]
                adj.setdefault(a, []).append((b, j))
                adj.setdefault(b, []).append((a, j))
            while frontier:
                x = frontier.pop()
                if x == v:
                    break
                for y, j in adj.get(x, ()):
                    if y not in parent:
                        parent[y] = (x, j)
                        frontier.append(y)
            cycle = [e]
            x = v
            while parent[x] is not None:
                x, j = parent[x]
                cycle.append(j)
        state = "l" if min(cycle) == e else "d"
    return state + ("" if sign > 0 else "bar")


def gamma(g: SignedPlanarGraph) -> HalfLaurent:
    """Spanning-tree expansion over activity weights; 1 for the edgeless
    single vertex."""
    if not g.is_connected():
        raise ValueError("graph is not connected")
    total = HalfLaurent.zero()
    for tree in spanning_trees(g):
        term = HalfLaurent.one()
        for e in range(len(g.edges)):
            state = activity(g, tree, e)
            e2, c = (_WEIGHTS_POS | _WEIGHTS_NEG)[state]
            term = term * HalfLaurent.monomial2(e2, c)
        total = total + term
    return total


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
    column deleted. Loops are ignored."""
    if not g.is_connected():
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
        # contract e: its higher end becomes its lower one, and the
        # vertices above close the gap
        keep, gone = min(u, v), max(u, v)
        remap = [w - (w > gone) for w in range(g.vertex_count)]
        remap[gone] = keep
        merged = _goeritz_minor_det(
            g.vertex_count - 1,
            [(remap[a], remap[b], s) for a, b, s in rest])
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

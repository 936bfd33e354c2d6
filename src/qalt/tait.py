"""Checkerboard graphs and the subset expansion of a signed graph.

A connected diagram's faces are two-colored; the black faces become
vertices and every crossing contributes one signed edge. An edge is
positive when the black regions occupy the corners between slots 1-2
and 3-0 of its crossing (the pair swept clockwise from the over-strand),
negative otherwise; the white graph is the planar dual and carries the
opposite signs. checkerboard() builds both from one face coloring; the
certification search and its replay read the black one.

gamma(G) is Kauffman's subset expansion of the signed graph, the sum
over edge subsets S of A^(sum of s_e over S - sum over the rest) times
delta^(k(S) + n(S) - 1), where delta = -A^2 - A^-2 and (V, S) has k(S)
components and n(S) independent cycles. On a plane graph k + n is the
state's circle count, so gamma of the black graph is the bracket up to
a monomial; the identity holds on every graph.
"""

from __future__ import annotations

from ._util import _Record, _join, bareiss_det
from .diagram import Diagram, DisconnectedDiagram
from .laurent import HalfLaurent


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
    """Multigraph with signed edges, edges[i] = (u, v, sign).

    checkerboard() puts crossing i's edge at edges[i] in both graphs
    of a diagram. gamma, goeritz_det and each edge's
    pair from smoothing_dets do not depend on the edge order."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges):
        # a bool or a float is refused where an int is meant
        if type(vertex_count) is not int:
            raise ValueError("vertex count must be an int: %r"
                             % (vertex_count,))
        if vertex_count < 1:
            raise ValueError("need at least one vertex")
        clean = []
        for u, v, s in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError("edge endpoints must be ints: %r"
                                 % ((u, v, s),))
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError("edge endpoint out of range: %r" % ((u, v, s),))
            if type(s) is not int or s not in (1, -1):
                raise ValueError("edge sign must be +1 or -1")
            clean.append((u, v, s))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(clean))

    def is_connected(self) -> bool:
        return _connected(self.vertex_count, self.edges)


def checkerboard(d: Diagram) -> tuple:
    """(black graph, white graph) of a connected diagram, each the
    other's planar dual with negated signs, from one face coloring.

    The black class is the larger face class; on a tie, the class not
    containing the face at the least port. The crossing-free unknot
    yields a single-vertex graph for both. A code that fixes no planar
    embedding raises NoEmbedding from Diagram.face_incidence."""
    if not d.is_connected():
        raise DisconnectedDiagram("checkerboard needs a connected diagram")
    if not d.crossings:
        unknot = SignedPlanarGraph(1, ())
        return unknot, unknot
    nfaces, corners, colors = d.face_incidence()
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

    return graph(black), graph(1 - black)


def gamma(g: SignedPlanarGraph) -> HalfLaurent:
    """The subset expansion by a frontier sweep over the edges; 1 for
    the edgeless single vertex. Connectivity is checked first, before
    anything is made per vertex.

    The next edge is the one with the most ends on the frontier, the
    vertices seen that still have an edge to come; then the lowest
    index. A state is the partition of the frontier into the classes
    the taken edges join, numbered by first appearance, and maps doubled
    A-exponents to coefficients. Leaving edge e out multiplies by
    A^-s_e; taking it multiplies by A^s_e, and by delta where e closes a
    cycle. A class that leaves the frontier is a finished component and
    multiplies by delta, except the last, the circle <O> = 1."""
    import heapq

    if not g.is_connected():
        raise ValueError("graph is not connected")
    n, edges = g.vertex_count, g.edges
    ends = [[] for _ in range(n)]  # a loop is listed twice at its vertex
    for i, (u, v, _) in enumerate(edges):
        ends[u].append(i)
        ends[v].append(i)
    left = [len(e) for e in ends]
    # the queue holds (-ends seen, index) each time an edge's count
    # grows. A vertex leaves the frontier only after its last edge, so a
    # waiting edge's count never falls: its newest entry comes out
    # first, and the stale ones find it taken
    seen, taken = [0] * len(edges), set()
    front, queue, states = [], [(0, 0)] if edges else [], {(): {0: 1}}
    while queue:
        i = heapq.heappop(queue)[1]
        if i in taken:
            continue
        taken.add(i)
        u, v, s = edges[i]
        fresh = [w for w in dict.fromkeys((u, v)) if w not in front]
        for w in fresh:
            for j in ends[w]:
                if j not in taken:
                    seen[j] += 1
                    heapq.heappush(queue, (-seen[j], j))
        front += fresh
        pu, pv = front.index(u), front.index(v)
        left[u] -= 1
        left[v] -= 1
        keep = [p for p, w in enumerate(front) if left[w]]
        front = [front[p] for p in keep]
        swept = {}
        for labels, terms in states.items():
            k = max(labels, default=-1) + 1
            labels += tuple(range(k, k + len(fresh)))
            a, b = labels[pu], labels[pv]
            joined = tuple(a if x == b else x for x in labels)
            for lab, shift, cycles in ((labels, -2 * s, 0),
                                       (joined, 2 * s, a == b)):
                kept = [lab[p] for p in keep]
                out = {e + shift: c for e, c in terms.items()}
                # delta = -A^2 - A^-2 per closed cycle and finished
                # component; the frontier empties only at the end
                for _ in range(cycles + len(set(lab).difference(kept))
                               - (not front)):
                    spread = {}
                    for e, c in out.items():
                        spread[e + 4] = spread.get(e + 4, 0) - c
                        spread[e - 4] = spread.get(e - 4, 0) - c
                    out = spread
                names = {}
                into = swept.setdefault(
                    tuple(names.setdefault(x, len(names)) for x in kept), {})
                for e, c in out.items():
                    into[e] = into.get(e, 0) + c
        # zeros go as they arise, so sums that cancel stay short
        states = {key: {e: c for e, c in terms.items() if c}
                  for key, terms in swept.items()}
    return HalfLaurent(states[()])


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

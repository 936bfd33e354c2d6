"""Identities from the paper and its background, checked by the tests.

Nothing in the library calls these; they are the references the tests
hold the library against:

- the oriented skein identity for V, and the gap between the brackets
  of the two smoothings at an inter-component crossing (bracket);
- Thistlethwaite's spanning-tree expansion of Gamma over edge
  activities, the reference the frontier sweep is held to, the
  deletion-contraction identity for Gamma, the Tutte polynomial and the
  matrix-tree count of a signed graph (tait);
- |f(zeta_8)|, the evaluation that gives det from Gamma (laurent);
- Fox's Alexander matrix: the Alexander polynomial from one exact
  determinant at t = 2^W, and at t = -1 the coloring matrix, a third
  route to the determinant beside the bracket and the Goeritz matrix;
  and the signature by Gordon and Litherland from either checkerboard
  graph (diagram);
- the readings that only the tests make: each arc's component and head
  (diagram), and a verdict's rule ids (qa).

The graph operations the identities need take the graph as their first
argument: is_loop, is_isthmus, delete, contract and reorder, and the
tree expansion's spanning_trees and activity, which read the edges in
index order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from qalt._util import _join, _root, bareiss_det
from qalt.bracket import jones, kauffman_bracket
from qalt.diagram import Diagram
from qalt.laurent import (HalfLaurent, SupportNotOnLattice, ZeroPolynomial,
                          monomial_quotient)
from qalt.tait import (SignedPlanarGraph, _connected, _goeritz_minor_det,
                       gamma)

log = logging.getLogger(__name__)


# laurent


class Overlap(ValueError):
    """gap_between needs the first support strictly below the second."""


def abs_at_primitive_eighth_root(f: HalfLaurent) -> int:
    """|f(zeta)| for zeta = exp(i*pi/4), exact; needs integer exponents.

    Writing f(zeta) = v0 + v1*zeta + v2*zeta^2 + v3*zeta^3 gives
    |f|^2 = sum(v_i^2) + sqrt(2)*(v0*v1 - v0*v3 + v1*v2 + v2*v3), so the
    value is an integer exactly when the sqrt(2) part vanishes and the
    rational part is a perfect square.
    """
    v = [0, 0, 0, 0]
    for e2, c in f.items2():
        if e2 % 2:
            raise SupportNotOnLattice(
                "eighth-root evaluation needs integer exponents")
        k = (e2 // 2) % 8
        if k < 4:
            v[k] += c
        else:
            v[k - 4] -= c
    p = v[0] * v[0] + v[1] * v[1] + v[2] * v[2] + v[3] * v[3]
    q = v[0] * v[1] - v[0] * v[3] + v[1] * v[2] + v[2] * v[3]
    if q != 0:
        raise ValueError("|f(zeta_8)|^2 is irrational")
    r = isqrt(p)
    if r * r != p:
        raise ValueError("|f(zeta_8)| is not an integer")
    return r


def gap_between(f: HalfLaurent, g: HalfLaurent, step2: int):
    """Gap length between the top of f and the bottom of g, in step units.

    Returns None when the supports are adjacent on the lattice; raises
    Overlap when g does not start strictly above f.
    """
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("gap_between needs nonzero polynomials")
    if step2 <= 0:
        raise ValueError("step2 must be positive")
    m2 = f.max2()
    n2 = g.min2()
    if n2 <= m2:
        raise Overlap("supports overlap or touch out of order")
    if (n2 - m2) % step2:
        raise SupportNotOnLattice(
            "distance %s is not a lattice multiple" % Fraction(n2 - m2, 2))
    d = (n2 - m2) // step2
    if d == 1:
        return None
    return d - 1


# diagram


def component_map(d: Diagram) -> dict:
    """Arc label -> component number, components numbered in order of
    their lowest labels."""
    flat, mate = d._flat, d._mate
    cmap = {}
    for cid, start in enumerate(d._starts):
        cur = start
        while True:
            cmap[flat[cur ^ 2]] = cid
            cur = mate[cur ^ 2]
            if cur == start:
                break
    return cmap


def arc_head(d: Diagram, lab: int):
    """The port the arc flows into, as (crossing, slot)."""
    p = d._head_port(lab)
    return (p >> 2, p & 3)


def _fox_minor_det(d: Diagram, t: int) -> int:
    """det of Fox's Alexander matrix of d at the integer t, with its
    first row and column struck out: Delta(t) up to a unit +-t^k, read
    off no faces. Each crossing gives a row, 1 - t at its over-arc, and
    t and -1 at the ends of its under-strand: Fox's derivatives of the
    Wirtinger relation x_j = x_k x_i x_k^-1 put t at the incoming end
    i, and those of x_j = x_k^-1 x_i x_k, the other sign, at the
    outgoing end j. An over-arc is a class of the labels that the
    crossings' over-strands join. A free loop beside crossings, or a
    component that never passes under, makes the link split, and the
    answer 0."""
    if not d.crossings:
        return int(d.free_loops == 1)
    labels = sorted({lab for x in d.crossings for lab in x})
    index = {lab: i for i, lab in enumerate(labels)}
    parent = list(range(len(index)))
    for x in d.crossings:
        _join(parent, index[x[1]], index[x[3]])
    arc = {}
    for i in range(len(parent)):
        arc.setdefault(_root(parent, i), len(arc))
    if d.free_loops or len(arc) != len(d.crossings):
        return 0
    rows = []
    for c, x in enumerate(d.crossings):
        row = [0] * len(arc)
        into, out = (t, -1) if d.sign(c) > 0 else (-1, t)
        for slot, entry in ((1, 1 - t), (0, into), (2, out)):
            row[arc[_root(parent, index[x[slot]])]] += entry
        rows.append(row[1:])
    return bareiss_det(rows[1:])


def coloring_det(d: Diagram) -> int:
    """|det| of Fox's coloring matrix with its first row and column
    struck out: the Alexander matrix at t = -1, +2 at each over-arc and
    -1 at each end of an under-strand, a route to the determinant that
    reads no faces."""
    return abs(_fox_minor_det(d, -1))


def alexander(d: Diagram) -> HalfLaurent:
    """The Alexander polynomial Delta(t) of d, up to a unit +-t^k, with
    doubled exponents as HalfLaurent keeps them; 0 for a split link.
    One Bareiss call evaluates the Fox minor at t = 2^W, W = 2n + 4,
    and the digits of the result in balanced base 2^W are the
    coefficients: a row of the minor has entries of coefficient sum 4 at
    most, so those of the minor's determinant sum to at most 4^(n-1),
    below half the base."""
    w = 2 * len(d.crossings) + 4
    value = _fox_minor_det(d, 1 << w)
    terms = {}
    e2 = 0
    while value:
        digit = value & ((1 << w) - 1)
        if digit >> (w - 1):
            digit -= 1 << w
        terms[e2] = digit
        value = (value - digit) >> w
        e2 += 2
    return HalfLaurent(terms)


def _inertia(m) -> int:
    """Positive less negative eigenvalues of the symmetric matrix m,
    found exactly over Fraction by congruence (Sylvester's law of
    inertia): each nonzero diagonal pivot gives its sign and leaves its
    Schur complement. Where the diagonal is all zero, adding row and
    column j to row and column i turns a nonzero m[i][j] into the pivot
    2 m[i][j]; a zero matrix adds nothing more."""
    m = [[Fraction(x) for x in row] for row in m]
    inertia = 0
    while m:
        k = next((i for i in range(len(m)) if m[i][i]), None)
        if k is None:
            pair = next(((i, j) for i, row in enumerate(m)
                         for j, x in enumerate(row) if x), None)
            if pair is None:
                break
            k, j = pair
            for row in m:
                row[k] += row[j]
            m[k] = [a + b for a, b in zip(m[k], m[j])]
        pivot = m[k][k]
        inertia += 1 if pivot > 0 else -1
        m = [[x - row[k] * m[k][b] / pivot
              for b, x in enumerate(row) if b != k]
             for a, row in enumerate(m) if a != k]
    return inertia


def signature(d: Diagram, g: SignedPlanarGraph) -> int:
    """The signature of d by Gordon and Litherland (Invent. Math. 1978),
    from g, either graph of checkerboard(d): the inertia of g's signed
    Goeritz minor, built as tait._goeritz_minor_det builds it, less the
    sum of s_c over the crossings c whose sign d.sign(c) differs from
    the sign s_c of their edge in g (the correction term mu of the
    surface that g spans)."""
    n = g.vertex_count
    m = [[0] * n for _ in range(n)]
    for u, v, s in g.edges:
        if u != v:
            m[u][v] -= s
            m[v][u] -= s
            m[u][u] += s
            m[v][v] += s
    return (_inertia([row[1:] for row in m[1:]])
            - sum(s for c, (_, _, s) in enumerate(g.edges)
                  if d.sign(c) != s))


# bracket


class SameComponent(ValueError):
    """The crossing joins two arcs of one component."""


def _negative_count(d: Diagram) -> int:
    return sum(1 for c in range(len(d.crossings)) if d.sign(c) < 0)


def skein_check(d: Diagram, c: int) -> bool:
    """Oriented skein identity at crossing c.

    With e the change in negative-crossing count caused by the oriented
    resolution (under the deterministic reorientation of the other one):

        positive c:  V = -t^(1/2) V_0 - t^((3e+2)/2) V_1
        negative c:  V = -t^((3e-2)/2) V_0 - t^(-1/2) V_1
    """
    sign = d.sign(c)
    v = jones(d)
    l0 = d.smooth(c, 0)
    l1 = d.smooth(c, 1)
    v0 = jones(l0)
    v1 = jones(l1)
    x = _negative_count(d)
    if sign > 0:
        e = _negative_count(l1) - x
        rhs = -(v0.shift2(1)) - v1.shift2(3 * e + 2)
    else:
        e = _negative_count(l0) - x + 1
        rhs = -(v0.shift2(3 * e - 2)) - v1.shift2(-1)
    return v == rhs


def bracket_gap_check(d: Diagram, c: int):
    """Gap length between A<L_0> and A^(-1)<L_1> in A-lattice steps.

    Requires the two strands at c to belong to different components.
    Returns None when the supports are adjacent or overlap in either
    order; otherwise the number of missing integer A-exponents between
    them. A single-monomial side is logged, not rejected."""
    d.sign(c)  # InvalidCrossing unless c is a crossing of d
    t = d.crossings[c]
    cmap = component_map(d)
    if cmap[t[0]] == cmap[t[1]]:
        raise SameComponent(
            "crossing %d joins arcs of one component" % c)
    f = kauffman_bracket(d.smooth(c, 0)).shift2(2)
    g = kauffman_bracket(d.smooth(c, 1)).shift2(-2)
    if len(f.items2()) == 1 or len(g.items2()) == 1:
        log.info("bracket_gap_check at crossing %d: a side is a monomial", c)
    lo, hi = (f, g) if f.min2() <= g.min2() else (g, f)
    try:
        return gap_between(lo, hi, step2=2)
    except Overlap:
        return None


# tait


class LoopOrIsthmus(ValueError):
    """The skein identity needs an edge that is neither."""


def _edge(g: SignedPlanarGraph, i: int) -> tuple:
    """Edge i, once i is known to be an edge index."""
    if not isinstance(i, int) or not 0 <= i < len(g.edges):
        raise ValueError("no edge %r" % (i,))
    return g.edges[i]


def _forest(n: int, edges) -> list:
    """Union-find parent list of the graph on n vertices with these edges."""
    parent = list(range(n))
    for u, v, _ in edges:
        _join(parent, u, v)
    return parent


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
    """Activity state of edge e for the given spanning tree, the edges
    ordered by index.

    Returns one of L/D/l/d, with a "bar" suffix on negative edges:
    capital letters are in-tree, lowercase out-of-tree; L/l mean active.
    An in-tree edge is active when no earlier edge crosses the cut left
    by removing it. An outside edge is active when no earlier tree edge
    lies on its cycle, which is when the later tree edges alone join
    its ends (a loop's cycle is itself)."""
    edges = g.edges
    u, v, sign = _edge(g, e)
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


# weight of each activity state, as (doubled A-exponent, coefficient):
# in-tree active, in-tree inactive, external active, external inactive
_WEIGHTS = {"L": (-6, -1), "D": (2, 1), "l": (6, -1), "d": (-2, 1),
            "Lbar": (6, -1), "Dbar": (-2, 1), "lbar": (-6, -1), "dbar": (2, 1)}


def gamma_trees(g: SignedPlanarGraph) -> HalfLaurent:
    """Thistlethwaite's spanning-tree expansion: over spanning trees,
    the product of one activity weight per edge; 1 for the edgeless
    single vertex. The reference gamma is held to."""
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


def is_loop(g: SignedPlanarGraph, i: int) -> bool:
    u, v, _ = _edge(g, i)
    return u == v


def is_isthmus(g: SignedPlanarGraph, i: int) -> bool:
    u, v, _ = _edge(g, i)
    if u == v:
        return False
    parent = _forest(g.vertex_count, g.edges[:i] + g.edges[i + 1:])
    return _root(parent, u) != _root(parent, v)


def delete(g: SignedPlanarGraph, i: int) -> SignedPlanarGraph:
    _edge(g, i)
    edges = g.edges[:i] + g.edges[i + 1:]
    return SignedPlanarGraph(g.vertex_count, edges)


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


def contract(g: SignedPlanarGraph, i: int) -> SignedPlanarGraph:
    if is_loop(g, i):
        raise LoopOrIsthmus("cannot contract a loop")
    return SignedPlanarGraph(
        g.vertex_count - 1, _contracted(g.vertex_count, g.edges, i))


def reorder(g: SignedPlanarGraph, perm) -> SignedPlanarGraph:
    """Same graph with edges listed in the given permutation order."""
    if sorted(perm) != list(range(len(g.edges))):
        raise ValueError("not a permutation of the edge indices")
    return SignedPlanarGraph(g.vertex_count, tuple(g.edges[i] for i in perm))


def kirchhoff_count(g: SignedPlanarGraph) -> int:
    """Matrix-tree number of spanning trees (signs ignored): the Goeritz
    minor of the graph with every edge positive is its Laplacian minor."""
    return _goeritz_minor_det(g.vertex_count,
                              [(u, v, 1) for u, v, _ in g.edges])


def gamma_skein_check(g: SignedPlanarGraph, e: int) -> bool:
    """Deletion-contraction identity for the last edge in the order:

        gamma(G) == A^(-s) * gamma(G - e) + A^(s) * gamma(G / e)

    where s is the sign of e. Requires e to be last and neither a loop
    nor an isthmus."""
    if e != len(g.edges) - 1:
        raise ValueError("the tested edge must be last in the edge order")
    if is_loop(g, e) or is_isthmus(g, e):
        raise LoopOrIsthmus("edge %d is a loop or an isthmus" % e)
    s = g.edges[e][2]
    lhs = gamma(g)
    rhs = (gamma(delete(g, e)).shift2(-2 * s)
           + gamma(contract(g, e)).shift2(2 * s))
    return lhs == rhs


def tutte(g: SignedPlanarGraph) -> dict:
    """Tutte polynomial of the underlying unsigned graph as {(i, j): c},
    by deletion/contraction of the first edge. The work stack holds
    (vertex count, edges, i, j): a graph still to expand, whose Tutte
    polynomial enters the sum times x^i y^j."""
    out = {}
    stack = [(g.vertex_count, g.edges, 0, 0)]
    while stack:
        n, edges, i, j = stack.pop()
        if not edges:
            out[i, j] = out.get((i, j), 0) + 1
            continue
        u, v, _ = edges[0]
        if u == v:
            stack.append((n, edges[1:], i, j + 1))
            continue
        parent = _forest(n, edges[1:])
        isthmus = _root(parent, u) != _root(parent, v)
        stack.append((n - 1, _contracted(n, edges, 0), i + isthmus, j))
        if not isthmus:
            stack.append((n, edges[1:], i, j))
    return out


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


# qa


def rule_ids(verdict) -> tuple:
    """The ids of the rules that fired, in order."""
    return tuple(r[0] for r in verdict.reasons)

"""Identities from the paper and its background, checked by the tests.

Nothing in the library calls these; they are the references the tests
hold the library against:

- the oriented skein identity for V, and the gap between the brackets
  of the two smoothings at an inter-component crossing (bracket);
- the deletion-contraction identity for Gamma, the Tutte polynomial and
  the matrix-tree count of a signed graph (tait);
- |f(zeta_8)|, the evaluation that gives det from Gamma (laurent);
- the readings that only the tests make: each arc's component and head
  (diagram), and a verdict's rule ids (qa).

The graph operations the identities need take the graph as their first
argument: is_loop, is_isthmus, delete, contract and reorder.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from qalt._util import _root
from qalt.bracket import jones, kauffman_bracket
from qalt.diagram import Diagram
from qalt.laurent import (HalfLaurent, SupportNotOnLattice, ZeroPolynomial,
                          monomial_quotient)
from qalt.tait import SignedPlanarGraph, _forest, _goeritz_minor_det, gamma

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


def is_loop(g: SignedPlanarGraph, i: int) -> bool:
    u, v, _ = g._edge(i)
    return u == v


def is_isthmus(g: SignedPlanarGraph, i: int) -> bool:
    u, v, _ = g._edge(i)
    if u == v:
        return False
    parent = _forest(g.vertex_count, g.edges[:i] + g.edges[i + 1:])
    return _root(parent, u) != _root(parent, v)


def delete(g: SignedPlanarGraph, i: int) -> SignedPlanarGraph:
    g._edge(i)
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

"""Kauffman bracket, Jones polynomial, and determinant of a diagram.

The bracket is a frontier sweep over the crossings, cross-checked in
the tests against the 2^n state sum, which counts circles with a
union-find. The Jones polynomial is the bracket
times (-A)^(-3w) under the substitution t^(1/2) = A^(-2), and the
determinant is |V(-1)| evaluated exactly at t^(1/2) = i.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

from .diagram import Diagram, EmptyDiagram, SameComponent
from .laurent import (HalfLaurent, Overlap, SupportNotOnLattice, gap_between)

log = logging.getLogger(__name__)

# an extra closed circle multiplies the bracket by -A^(-2) - A^2
_DELTA = HalfLaurent({-4: -1, 4: -1})

_DELTA_POWERS = [HalfLaurent.one()]


def _delta_power(k: int) -> HalfLaurent:
    while len(_DELTA_POWERS) <= k:
        _DELTA_POWERS.append(_DELTA_POWERS[-1] * _DELTA)
    return _DELTA_POWERS[k]


def _sweep_order(crossings) -> list:
    """Crossing indices in sweep order: each step takes the crossing with
    the most labels already open (one end processed), lowest index first
    among ties."""
    left = list(range(len(crossings)))
    seen = set()
    order = []
    while left:
        ci = max(left, key=lambda i: sum(lab in seen for lab in crossings[i]))
        left.remove(ci)
        order.append(ci)
        seen.update(crossings[ci])
    return order


def _join(edges):
    """Chain label-to-label edges into paths and loops.

    Each label meets one edge (an end of a path) or two (an inner
    point). end maps each end of a path built so far to its other end.
    Returns the paths as sorted pairs of end labels, and the number of
    closed loops."""
    end = {}
    loops = 0
    for a, b in edges:
        pa = end.pop(a, a)
        pb = end.pop(b, b)
        if pa == b:
            loops += 1
        else:
            end[pa] = pb
            end[pb] = pa
    return [(x, y) for x, y in end.items() if x < y], loops


# r = 0 joins slots (0,1),(2,3) with weight A; r = 1 joins (0,3),(1,2)
# with weight A^-1
_SMOOTHINGS = ((((0, 1), (2, 3)), 1), (((0, 3), (1, 2)), -1))


def kauffman_bracket(d: Diagram) -> HalfLaurent:
    """Bracket polynomial in A, by a frontier sweep over the crossings.

    A label is open once one of its two ends has been processed. A state
    is the pairing of the open labels that the smoothed part joins by
    paths, as a sorted tuple of pairs; it maps to the partial state sum,
    a dict {(A exponent, closed loops): coefficient}. Each crossing
    splits every state in two by its smoothings: a smoothing's two arcs
    join the crossing's labels, and chaining them with the state's paths
    gives the new pairing and the loops closed. Equal pairings merge, so
    the cost is set by the number of open labels."""
    if d.component_count == 0:
        raise EmptyDiagram("the empty diagram has no bracket")
    crossings = d.crossings
    if not crossings:
        return _delta_power(d.free_loops - 1)
    states = {(): {(0, 0): 1}}
    width = peak = 0
    for ci in _sweep_order(crossings):
        labs = crossings[ci]
        smoothings = [(tuple((labs[i], labs[j]) for i, j in pairs), de)
                      for pairs, de in _SMOOTHINGS]
        nxt = {}
        for state, poly in states.items():
            for arcs, de in smoothings:
                paths, loops = _join(state + arcs)
                key = tuple(sorted(paths))
                acc = nxt.get(key)
                if acc is None:
                    acc = nxt[key] = {}
                for (e, k), c in poly.items():
                    ek = (e + de, k + loops)
                    acc[ek] = acc.get(ek, 0) + c
        states = nxt
        # every state pairs up the same open labels
        width = max(width, 2 * len(next(iter(states))))
        peak = max(peak, len(states))
    log.debug("kauffman_bracket: %d crossings, frontier width %d, "
              "peak states %d", len(crossings), width, peak)
    # sum of c A^e delta^(loops - 1 + free loops), doubled exponents
    terms = {}
    for (e, k), c in states[()].items():
        for e2, dc in _delta_power(k - 1 + d.free_loops).items2():
            terms[2 * e + e2] = terms.get(2 * e + e2, 0) + c * dc
    return HalfLaurent(terms)


def bracket_state_sum(d: Diagram) -> HalfLaurent:
    """Bracket by brute-force enumeration of all 2^n smoothings.

    Ports are numbered 4*c + s for slot s of crossing c, and each arc
    is one element of a union-find; a smoothing joins the arcs at its
    crossing's slot pairs, and the circles are the classes left. The
    sum tallies how many states have each count of 1-smoothings and
    circles, then expands the tally once."""
    if d.component_count == 0:
        raise EmptyDiagram("the empty diagram has no bracket")
    n = len(d.crossings)
    if n > 16:
        raise ValueError("state sum capped at 16 crossings")
    arc = [0] * (4 * n)
    labels = list(d.component_map)
    for i, lab in enumerate(labels):
        for c, s in (d.arc_head(lab), d.arc_tail(lab)):
            arc[4 * c + s] = i
    # per crossing, the pairs of arcs that its 0- and 1-smoothing join
    joins = [(((arc[p], arc[p + 1]), (arc[p + 2], arc[p + 3])),
               ((arc[p], arc[p + 3]), (arc[p + 1], arc[p + 2])))
              for p in range(0, 4 * n, 4)]
    tally = Counter()
    for mask in range(1 << n):
        parent = list(range(len(labels)))
        circles = len(labels) + d.free_loops
        for c in range(n):
            for a, b in joins[c][mask >> c & 1]:
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a != b:
                    parent[a] = b
                    circles -= 1
        tally[mask.bit_count(), circles] += 1
    terms = {}
    for (ones, circles), k in tally.items():
        for e2, c in _delta_power(circles - 1).items2():
            e2 += 2 * (n - 2 * ones)
            terms[e2] = terms.get(e2, 0) + k * c
    return HalfLaurent(terms)


def _normalize(bracket: HalfLaurent, w: int) -> HalfLaurent:
    """(-A)^(-3w) times the bracket, rewritten in t^(1/2) = A^(-2)."""
    b = bracket.shift2(-6 * w)
    if w % 2:
        b = -b
    terms = {}
    for e2, c in b.items2():
        if e2 % 4:
            raise SupportNotOnLattice(
                "bracket exponent %s/2 not divisible by 2" % e2)
        terms[-e2 // 4] = c
    return HalfLaurent(terms)


def jones(d: Diagram) -> HalfLaurent:
    """Jones polynomial in t^(1/2): (-A)^(-3w) times the bracket, with
    t^(1/2) = A^(-2). Defined for any nonempty diagram; orientation and
    writhe come from the PD numbering."""
    if d.component_count == 0:
        raise EmptyDiagram("the empty diagram has no Jones polynomial")
    return _normalize(kauffman_bracket(d), d.writhe())


def determinant(d: Diagram) -> int:
    """|V(-1)| with t^(1/2) = i, exact."""
    return jones(d).abs_at_minus_one()


@dataclass(frozen=True)
class BracketResult:
    bracket: HalfLaurent
    jones: HalfLaurent
    writhe: int
    determinant: int


def bracket_result(d: Diagram) -> BracketResult:
    if d.component_count == 0:
        raise EmptyDiagram("the empty diagram has no Jones polynomial")
    b = kauffman_bracket(d)
    w = d.writhe()
    v = _normalize(b, w)
    return BracketResult(bracket=b, jones=v, writhe=w,
                         determinant=v.abs_at_minus_one())


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
    t = d.crossings[c]
    if d.component_map[t[0]] == d.component_map[t[1]]:
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

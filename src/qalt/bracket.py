"""Kauffman bracket, Jones polynomial, and determinant of a diagram.

The bracket has two independent routes that the tests compare: a
memoized resolution recursion, and a full 2^n state sum that counts
circles with a union-find. The Jones polynomial is the bracket
times (-A)^(-3w) under the substitution t^(1/2) = A^(-2), and the
determinant is |V(-1)| evaluated exactly at t^(1/2) = i.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from ._util import DisjointSet
from .diagram import Diagram, EmptyDiagram, NotTypeI, SameComponent
from .laurent import (HalfLaurent, Overlap, SupportNotOnLattice, gap_between)

log = logging.getLogger(__name__)

# an extra closed circle multiplies the bracket by -A^(-2) - A^2
_DELTA = HalfLaurent({-4: -1, 4: -1})

_DELTA_POWERS = [HalfLaurent.one()]


def _delta_power(k: int) -> HalfLaurent:
    while len(_DELTA_POWERS) <= k:
        _DELTA_POWERS.append(_DELTA_POWERS[-1] * _DELTA)
    return _DELTA_POWERS[k]


def kauffman_bracket(d: Diagram) -> HalfLaurent:
    """Bracket polynomial in A, by memoized crossing resolution."""
    if d.component_count == 0:
        raise EmptyDiagram("the empty diagram has no bracket")
    memo = {}

    def rec(dd: Diagram) -> HalfLaurent:
        if not dd.crossings:
            return _delta_power(dd.free_loops - 1)
        key = (dd.crossings, dd.free_loops)
        got = memo.get(key)
        if got is None:
            # smooth() renumbers its result; only the root needs canonical()
            l0 = rec(dd.smooth(0, 0))
            l1 = rec(dd.smooth(0, 1))
            got = l0.shift2(2) + l1.shift2(-2)
            memo[key] = got
        return got

    return rec(d.canonical())


def bracket_state_sum(d: Diagram) -> HalfLaurent:
    """Bracket by brute-force enumeration of all 2^n smoothings."""
    if d.component_count == 0:
        raise EmptyDiagram("the empty diagram has no bracket")
    n = len(d.crossings)
    if n > 16:
        raise ValueError("state sum capped at 16 crossings")
    labels = list(d.component_map)
    total = HalfLaurent.zero()
    for mask in range(1 << n):
        dsu = DisjointSet()
        for ci in range(n):
            if (mask >> ci) & 1:
                dsu.union((ci, 0), (ci, 3))
                dsu.union((ci, 1), (ci, 2))
            else:
                dsu.union((ci, 0), (ci, 1))
                dsu.union((ci, 2), (ci, 3))
        for lab in labels:
            dsu.union(d.arc_head(lab), d.arc_tail(lab))
        circles = dsu.count() + d.free_loops
        ones = bin(mask).count("1")
        total = total + _delta_power(circles - 1).shift2(2 * (n - 2 * ones))
    return total


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
    info = d.crossing_info(c)
    if not info.type_I:
        raise NotTypeI("crossing %d is not type I" % c)
    v = jones(d)
    l0 = d.smooth(c, 0)
    l1 = d.smooth(c, 1)
    v0 = jones(l0)
    v1 = jones(l1)
    x = _negative_count(d)
    if info.sign > 0:
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

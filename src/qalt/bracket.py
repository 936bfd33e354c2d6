"""Kauffman bracket, Jones polynomial, and determinant of a diagram.

The bracket is a frontier sweep over the crossings, cross-checked in
the tests against the 2^n state sum, which counts circles with a
union-find. The Jones polynomial is the bracket times (-A)^(-3w) under
the substitution t^(1/2) = A^(-2), and the determinant is |V(-1)|
evaluated exactly at t^(1/2) = i.

The sweep takes one crossing per step and reads the diagram through
its ports alone (Diagram._mate): crossing c has ports 4c to 4c + 3, and
each arc joins a port to its mate. An arc is open once one of its two
ends has been processed, and each open arc holds a slot, so one
numbering of the slots serves every state of a step; the sweep keys
the slot by the port at the arc's far end, where it meets the arc
next. A state is the tuple over the slots of each slot's partner: the
smoothed part joins the open arc in a slot by a path to the arc in its
partner slot, and a free slot is its own partner. Each state carries
its partial sum as one packed integer: digit j, in balanced base 2^W,
is the coefficient of A^(base + 2j), with base shared by the step's
states. Packing is evaluation at A^2 = 2^W, so the integers are exact
at any W, and W only has to hold the bracket's coefficients when the
sum is unpacked. It does with W = 3n + 2 for n crossings: a step multiplies
each of the 2^n smoothing paths by A^(+1 or -1) and delta^k, k <= 2,
whose coefficients sum in absolute value to 2^k, so no coefficient
exceeds 2^n * 4^n < 2^(W-1). _sweep tightens the bound to the loops
each step can close, which is about 1.6 n bits on braid closures.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from operator import itemgetter

from ._util import _Record, _join
from .diagram import _SMOOTHINGS, Diagram, EmptyDiagram
from .laurent import HalfLaurent, SupportNotOnLattice

# an extra closed circle multiplies the bracket by -A^(-2) - A^2
_DELTA = HalfLaurent({-4: -1, 4: -1})

_DELTA_POWERS = [HalfLaurent.one()]


def _delta_power(k: int) -> HalfLaurent:
    while len(_DELTA_POWERS) <= k:
        _DELTA_POWERS.append(_DELTA_POWERS[-1] * _DELTA)
    return _DELTA_POWERS[k]


# each smoothing's two arcs, as the slot pairs they join, and the
# getters that read them off a step's slots
_ARCS = tuple(i + k for i, k in _SMOOTHINGS)
_ARC_SLOTS = tuple(itemgetter(*arcs) for arcs in _ARCS)
# by the set of a crossing's slots whose arcs are path ends when its
# smoothing joins them (bit i for slot i), the most loops each smoothing
# can close: a join closes one only when both its arcs are ends; and
# the growth of the coefficient bound at such a step (see _sweep)
_KMAX = [tuple((mask >> i & mask >> j & 1) + (mask >> k & mask >> m & 1)
               for i, j, k, m in _ARCS) for mask in range(16)]
_GROWTH = [(1 << k0) + (1 << k1) for k0, k1 in _KMAX]


def _sweep(d: Diagram):
    """The sweep: per step, its crossing's slots and their ends mask
    (see _KMAX); then the number of slots, the frontier width (the most
    arcs open at once), and a bound on the bracket's coefficients. It
    reads the diagram's ports only, through _mate.

    Each step takes the crossing with the most arcs already open,
    lowest index first among ties. rank[c] is n times the number of
    crossing c's open arcs, less c, so the largest rank names that
    crossing; taking a crossing sets its rank to -inf, below every
    other, and bumps the crossing at the far end of each of its four
    arcs by n. An open arc holds a slot from its first end to its
    second, kept in slot_at under the port at its far end; a slot is
    reused once its arc has closed. A slot's arc is a path end once it
    is open or met twice at this crossing.

    The bound: a step multiplies each partial sum by A^(+1 or -1) and
    delta^k, k at most kmax of its smoothing, and delta^k's
    coefficients sum in absolute value to 2^k. So the absolute
    coefficients of all states together grow at most
    2^kmax_0 + 2^kmax_1 times per step, and the last step, whose loops
    include the circle <O> = 1, half that."""
    mate = d._mate
    n = len(mate) >> 2
    rank = [-c for c in range(n)]
    # the slot of each open arc, under the port at its far end
    slot_at = [None] * len(mate)
    free = []
    size = width = arcs = 0
    bound = 1
    steps = []
    for _ in range(n):
        ci = rank.index(max(rank))
        rank[ci] = -math.inf
        slots = []
        done = []
        mask = 0
        bit = 1
        for p in range(4 * ci, 4 * ci + 4):
            q = mate[p]
            c = q >> 2
            rank[c] += n
            s = slot_at[p]
            if s is not None:
                done.append(s)
                mask |= bit
            else:
                if free:
                    s = free.pop()
                else:
                    s = size
                    size += 1
                slot_at[q] = s
                if c == ci:
                    mask |= bit
            slots.append(s)
            bit <<= 1
        free += done
        arcs += 4 - 2 * len(done)
        if arcs > width:
            width = arcs
        bound *= _GROWTH[mask]
        steps.append((slots, mask))
    return steps, size, width, bound >> 1


@functools.lru_cache(maxsize=256)
def _multipliers(w: int, mask: int, closing: bool) -> tuple:
    """How a step moves a partial sum on: the drop in base, and for each
    smoothing, of weight A then A^-1, the packed factor by the number of
    loops closed. All but the circle <O> that the last step closes are
    factors delta, at most top = kmax - closing of them, and delta^k =
    (-1)^k A^(-2k) (1 + A^4)^k, with (1 + A^4)^k packed as
    (1 + 2^(2w))^k. So the lowest exponent falls by at most
    drop = max(2 top_0 - 1, 2 top_1 + 1), and each factor is shifted up
    by the digits left over."""
    top = [k - closing for k in _KMAX[mask]]
    drop = max(2 * top[0] - 1, 2 * top[1] + 1)
    rows = tuple((0,) * closing + tuple(
        (-1) ** k * (1 + (1 << 2 * w)) ** k << w * ((drop + sign) // 2 - k)
        for k in range(t + 1)) for t, sign in zip(top, (1, -1)))
    return drop, rows


def kauffman_bracket(d: Diagram) -> HalfLaurent:
    """Bracket polynomial in A, by a frontier sweep over the crossings.

    A state (see the module docstring) maps to its partial sum: the
    smoothings leading to it contribute it, every loop they closed
    already a factor delta. Each crossing splits every state in two by
    its smoothings. A smoothing joins the crossing's four slots in two
    pairs (_ARCS), and each join either extends a path or closes a
    loop. The partial sum is multiplied by A^(+1 or -1) and by
    delta^loops. The last crossing closes every path; one of its loops
    is the circle <O> = 1, with no delta. Equal pairings merge, so the
    cost is set by the number of open arcs.

    A partial sum is one integer, digit j the coefficient of
    A^(base + 2j) in balanced base 2^w (the module docstring gives w):
    a step is one multiply by a factor from _multipliers, merging is one
    add, and the sum is unpacked once."""
    if d.component_count == 0:
        raise EmptyDiagram("the empty diagram has no bracket")
    if not d._mate:
        return _delta_power(d.free_loops - 1)
    steps, size, width, bound = _sweep(d)
    w = bound.bit_length() + 1
    states = {tuple(range(size)): 1}
    base = peak = 0
    last = len(steps) - 1
    arcs0, arcs1 = _ARC_SLOTS
    for t, (slots, mask) in enumerate(steps):
        drop, (mults0, mults1) = _multipliers(w, mask, t == last)
        base -= drop
        # the 0-smoothing has weight A, the 1-smoothing A^-1
        smoothings = ((arcs0(slots), mults0), (arcs1(slots), mults1))
        nxt = {}
        get = nxt.get
        for state, q in states.items():
            for (a, b, c, e), mults in smoothings:
                end = list(state)
                pa = end[a]
                end[a] = a
                pb = end[b]
                end[b] = b
                if pa == b:
                    loops = 1
                else:
                    loops = 0
                    end[pa] = pb
                    end[pb] = pa
                pa = end[c]
                end[c] = c
                pb = end[e]
                end[e] = e
                if pa == e:
                    loops += 1
                else:
                    end[pa] = pb
                    end[pb] = pa
                key = tuple(end)
                nxt[key] = get(key, 0) + q * mults[loops]
        states = nxt
        peak = max(peak, len(nxt))
    # a log record reaches a handler only once the application has imported
    # and configured logging, so qalt looks it up instead of importing it
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).debug(
            "kauffman_bracket: %d crossings, frontier width %d, "
            "peak states %d", len(d._mate) >> 2, width, peak)
    (q,) = states.values()
    terms = {}
    digit = (1 << w) - 1
    e2 = 2 * base
    while q:
        c = q & digit
        if c >> (w - 1):
            c -= digit + 1
        if c:
            terms[e2] = c
        q = (q - c) >> w
        e2 += 4
    b = HalfLaurent(terms)
    return b * _delta_power(d.free_loops) if d.free_loops else b


def bracket_state_sum(d: Diagram) -> HalfLaurent:
    """Bracket by brute-force enumeration of all 2^n smoothings.

    Each arc label is one element of a union-find; a smoothing joins the
    labels of its crossing's slot pairs, read off _SMOOTHINGS, and the
    circles are the classes left. The sum tallies how many states have
    each count of 1-smoothings and circles, then expands the tally once."""
    if d.component_count == 0:
        raise EmptyDiagram("the empty diagram has no bracket")
    n = len(d.crossings)
    if n > 16:
        raise ValueError("state sum capped at 16 crossings")
    index = {lab: i for i, lab in enumerate(
        sorted({lab for t in d.crossings for lab in t}))}
    # per crossing, the pairs of arcs that its 0- and 1-smoothing join
    joins = [[[(index[t[i]], index[t[j]]) for i, j in pairs]
              for pairs in _SMOOTHINGS] for t in d.crossings]
    tally = Counter()
    for mask in range(1 << n):
        parent = list(range(len(index)))
        circles = len(index) + d.free_loops
        for c in range(n):
            for a, b in joins[c][mask >> c & 1]:
                circles -= _join(parent, a, b)
        tally[mask.bit_count(), circles] += 1
    terms = {}
    for (ones, circles), k in tally.items():
        for e2, c in _delta_power(circles - 1).items2():
            e2 += 2 * (n - 2 * ones)
            terms[e2] = terms.get(e2, 0) + k * c
    return HalfLaurent(terms)


def jones(d: Diagram) -> HalfLaurent:
    """Jones polynomial in t^(1/2): (-A)^(-3w) times the bracket, with
    t^(1/2) = A^(-2). Defined for any nonempty diagram; orientation and
    writhe come from the PD numbering."""
    return bracket_result(d).jones


def determinant(d: Diagram) -> int:
    """|V(-1)| with t^(1/2) = i, exact."""
    return bracket_result(d).determinant


class BracketResult(_Record):
    __slots__ = ("bracket", "jones", "writhe", "determinant")


def bracket_result(d: Diagram) -> BracketResult:
    """The bracket, the writhe w, and from them the Jones polynomial,
    (-A)^(-3w) times the bracket rewritten in t^(1/2) = A^(-2), and its
    determinant. A code that fixes no planar embedding raises
    NoEmbedding (Diagram.check_planar): its bracket is that of no
    link."""
    if d.component_count == 0:
        raise EmptyDiagram("the empty diagram has no Jones polynomial")
    d.check_planar()
    b = kauffman_bracket(d)
    w = d.writhe()
    shift2 = -6 * w
    sign = -1 if w % 2 else 1
    terms = {}
    for e2, c in b._terms.items():
        e2 += shift2
        if e2 % 4:
            raise SupportNotOnLattice(
                "bracket exponent %s/2 not divisible by 2" % e2)
        terms[-e2 // 4] = sign * c
    v = HalfLaurent(terms)
    return BracketResult(bracket=b, jones=v, writhe=w,
                         determinant=v.abs_at_minus_one())

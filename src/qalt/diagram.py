"""Link diagrams as PD codes.

A crossing X[a,b,c,d] lists the four incident arcs counterclockwise
starting at the incoming under-strand, so slot 0 is the under-strand
entering, slot 2 is it leaving, and slots 1/3 carry the over-strand.
Orientations follow from that convention: slot 0 ports always flow in,
slot 2 ports always flow out, an arc's two ports flow oppositely, and
the two over-ports of a crossing flow oppositely. Each component is
walked once, from its lowest arc entering at that arc's later
occurrence and leaving every crossing by the opposite slot; the walk
also numbers the components in order of their lowest labels. A walk
that enters under-strands only at slot 0 runs with the component, one
that enters only at slot 2 runs against it, and one that enters at both
is a conflict. A component whose every port sits on an over-slot is
unconstrained and keeps the walk's direction, so the head of its lowest
arc is that arc's later occurrence.

Smoothings, Reidemeister reductions, mirrors, and connected sums are all
built on one splice-and-relabel engine so the renumbering rules stay
consistent: fused arcs inherit the direction of their lowest-labeled
fragment and each component is renumbered by traversal from its lowest
arc label.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass

from ._util import DisjointSet


class PDSyntaxError(ValueError):
    """Input text is not a PD code."""


class InvalidStrandLabels(ValueError):
    """A label does not appear exactly twice, or orientations conflict."""


class InvalidCrossing(ValueError):
    """Crossing id out of range or bad smoothing selector."""


class EmptyDiagram(ValueError):
    """The diagram has no components at all."""


class DisconnectedDiagram(ValueError):
    """The operation needs a connected diagram."""


class SplitDiagram(ValueError):
    """The operation needs a non-split diagram."""


class SameComponent(ValueError):
    """The crossing joins two arcs of one component."""


class NotTypeI(ValueError):
    """The crossing is not presented in the normalized smoothing frame."""


_EXIT_SLOT = {0: 2, 2: 0, 1: 3, 3: 1}


@dataclass(frozen=True)
class CrossingInfo:
    index: int
    sign: int
    type_I: bool


class Diagram:
    """Immutable PD-code diagram plus explicit crossing-free circles."""

    def __init__(self, crossings=(), free_loops: int = 0):
        tuples = []
        for t in crossings:
            t = tuple(t)
            if len(t) != 4:
                raise PDSyntaxError("crossing %r does not have 4 strands" % (t,))
            if not all(isinstance(x, int) and x > 0 for x in t):
                raise PDSyntaxError("strand labels must be positive integers: %r" % (t,))
            tuples.append(t)
        if not isinstance(free_loops, int) or free_loops < 0:
            raise ValueError("free_loops must be a nonnegative integer")
        self.crossings = tuple(tuples)
        self.free_loops = free_loops

        ports = {}
        for ci, t in enumerate(self.crossings):
            for s, lab in enumerate(t):
                ports.setdefault(lab, []).append((ci, s))
        for lab, occ in ports.items():
            if len(occ) != 2:
                raise InvalidStrandLabels(
                    "label %d appears %d times (want 2)" % (lab, len(occ)))
        self._ports = ports
        self.strand_count = len(ports)

        self._flow_in = flow = {}
        self.component_map = comp = {}
        cid = 0
        for lab in sorted(ports):
            if lab in comp:
                continue
            # lab is the lowest arc of a new component: walk it once
            start = cur = ports[lab][1]
            steps = []
            while True:
                ci, s = cur
                out = (ci, _EXIT_SLOT[s])
                steps.append((cur, out))
                arc = self.crossings[ci][out[1]]
                comp[arc] = cid
                a, b = ports[arc]
                cur = b if out == a else a
                if cur == start:
                    break
            unders = {p[1] for p, _ in steps if p[1] % 2 == 0}
            if len(unders) == 2:
                raise InvalidStrandLabels(
                    "labels force conflicting orientations on the "
                    "component of arc %d" % lab)
            forward = unders != {2}
            for p, q in steps:
                flow[p] = forward
                flow[q] = not forward
            cid += 1
        self._signs = tuple(
            1 if flow[(ci, 3)] else -1 for ci in range(len(self.crossings)))
        self.component_count = cid + self.free_loops
        self._shadow_parts = None
        self._faces = None

    # basic queries

    def __eq__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        return (self.crossings, self.free_loops) == (other.crossings, other.free_loops)

    def __hash__(self):
        return hash((self.crossings, self.free_loops))

    def __repr__(self):
        if self.crossings and self.free_loops == 0:
            return "Diagram(%r)" % self.render()
        return "Diagram(%r, free_loops=%d)" % (
            [list(t) for t in self.crossings], self.free_loops)

    def is_connected(self) -> bool:
        if not self.crossings:
            return self.free_loops == 1
        if self._shadow_parts is None:
            # the shadow's pieces, counted on first use only
            shadow = DisjointSet()
            for ci in range(len(self.crossings)):
                shadow.find(ci)
            for a, b in self._ports.values():
                shadow.union(a[0], b[0])
            self._shadow_parts = shadow.count()
        return self._shadow_parts == 1 and self.free_loops == 0

    def arc_head(self, lab: int):
        """The port the arc flows into."""
        a, b = self._ports[lab]
        return a if self._flow_in[a] else b

    def arc_tail(self, lab: int):
        a, b = self._ports[lab]
        return b if self._flow_in[a] else a

    def sign(self, c: int) -> int:
        self._check_crossing(c)
        return self._signs[c]

    def writhe(self) -> int:
        return sum(self._signs)

    def crossing_info(self, c: int) -> CrossingInfo:
        self._check_crossing(c)
        # with the under-strand pinned to slots 0 -> 2 every crossing sits
        # in the normalized frame already
        type_i = self._flow_in[(c, 0)] and not self._flow_in[(c, 2)]
        return CrossingInfo(index=c, sign=self._signs[c], type_I=type_i)

    def _check_crossing(self, c: int):
        if not isinstance(c, int) or not 0 <= c < len(self.crossings):
            raise InvalidCrossing("no crossing %r" % (c,))

    # faces

    def faces(self):
        """Face orbits of the 4-valent shadow, as tuples of entry ports.

        Entering a crossing at port (c, s) exits at (c, s-1 mod 4); the
        next entry is the other endpoint of the arc at the exit port.
        Faces are listed by their lexicographically least entry port.
        """
        if self._faces is not None:
            return self._faces
        seen = set()
        faces = []
        for ci in range(len(self.crossings)):
            for s in range(4):
                start = (ci, s)
                if start in seen:
                    continue
                orbit = []
                cur = start
                while True:
                    orbit.append(cur)
                    seen.add(cur)
                    exit_port = (cur[0], (cur[1] - 1) % 4)
                    lab = self.crossings[exit_port[0]][exit_port[1]]
                    a, b = self._ports[lab]
                    cur = b if exit_port == a else a
                    if cur == start:
                        break
                faces.append(tuple(orbit))
        faces.sort(key=lambda f: min(f))
        self._faces = tuple(faces)
        return self._faces

    # rendering / parsing

    def render(self) -> str:
        if self.free_loops and (self.crossings or self.free_loops > 1):
            raise ValueError("no PD text for diagrams with extra free loops")
        return " ".join("X[%d,%d,%d,%d]" % t for t in self.crossings)

    # rebuild helpers

    def canonical(self) -> "Diagram":
        """Deterministically renumbered copy: components ordered by lowest
        label, labels increasing along the traversal, tuples rotated so
        slot 0 is the under-entry, crossings sorted by slot-0 label."""
        if not self.crossings:
            return Diagram((), self.free_loops)
        port_arc = {}
        for ci, t in enumerate(self.crossings):
            for s in range(4):
                port_arc[(ci, s)] = t[s]
        heads = {lab: self.arc_head(lab) for lab in self._ports}
        return _assemble(list(enumerate(self.crossings)), port_arc, heads,
                         self.free_loops)

    def _splice(self, joins, drops=None) -> "Diagram":
        """Remove crossings, rewiring their ports.

        joins maps crossing id -> pairs of slots that fuse into a strand
        passing straight through; drops maps crossing id -> slots whose
        arc simply vanishes (the Reidemeister-1 loop). Chains of fused
        arcs that close up with no live endpoint become free loops.
        """
        drops = drops or {}
        removed = set(joins) | set(drops)
        wire = {}
        for ci, pairs in joins.items():
            for s1, s2 in pairs:
                wire[(ci, s1)] = (ci, s2)
                wire[(ci, s2)] = (ci, s1)
        dropped = {(ci, s) for ci, slots in drops.items() for s in slots}
        live = [(ci, t) for ci, t in enumerate(self.crossings)
                if ci not in removed]

        def other_end(port):
            lab = self.crossings[port[0]][port[1]]
            a, b = self._ports[lab]
            return lab, (b if port == a else a)

        port_arc = {}
        heads = {}
        loops = self.free_loops
        visited = set()

        def walk(start):
            # start is a live port; returns (fragments, end port) and
            # marks the wired ports it passes
            frags = []
            cur = start
            while True:
                lab, out = other_end(cur)
                frags.append((lab, cur, out))
                if out in dropped:
                    raise AssertionError("arc half-attached to a dropped slot")
                if out not in wire:
                    return frags, out
                cur = wire[out]
                visited.add(out)
                visited.add(cur)

        live_ports = [(ci, s) for ci, _ in live for s in range(4)]
        for p in live_ports:
            if p in visited:
                continue
            frags, end = walk(p)
            visited.add(p)
            visited.add(end)
            arc_id = min(lab for lab, _, _ in frags)
            port_arc[p] = arc_id
            port_arc[end] = arc_id
            lab, entry, out = min(frags, key=lambda f: f[0])
            # the lowest fragment's flow fixes the fused arc's direction
            forward = self._flow_in[out]
            heads[arc_id] = end if forward else p

        # wired ports no open chain passed lie on circles of fused arcs
        for w in wire:
            if w in visited:
                continue
            loops += 1
            cur = w
            while True:
                _, out = other_end(cur)
                cur = wire[out]
                visited.add(out)
                visited.add(cur)
                if cur == w:
                    break

        return _assemble(live, port_arc, heads, loops)

    # operations

    def smooth(self, c: int, r: int) -> "Diagram":
        """Replace crossing c by the r-resolution.

        r = 0 joins slots (0,1) and (2,3); r = 1 joins (0,3) and (1,2).
        The 0-resolution is the one whose coefficient in the bracket
        expansion is A.
        """
        self._check_crossing(c)
        if r not in (0, 1):
            raise InvalidCrossing("smoothing selector must be 0 or 1, got %r" % (r,))
        pairs = ((0, 1), (2, 3)) if r == 0 else ((0, 3), (1, 2))
        return self._splice({c: pairs})

    def mirror(self) -> "Diagram":
        """Switch every crossing; tuples re-rooted at the new under-entry."""
        out = []
        for ci, t in enumerate(self.crossings):
            if self._signs[ci] > 0:
                # over ran d -> b; mirrored, it dives under entering at d
                out.append((t[3], t[0], t[1], t[2]))
            else:
                out.append((t[1], t[2], t[3], t[0]))
        return Diagram(out, self.free_loops)

    def connected_sum(self, other: "Diagram") -> "Diagram":
        if self.component_count == 0 or other.component_count == 0:
            raise EmptyDiagram("connected sum needs nonempty diagrams")
        if not self.is_connected() or not other.is_connected():
            raise DisconnectedDiagram("connected sum needs connected diagrams")
        if not self.crossings:
            return other
        if not other.crossings:
            return self

        def splice_arc(d: "Diagram") -> int:
            # prefer an arc running from an over-exit to an under-entry so
            # alternating factors stay alternating
            for lab in sorted(d._ports):
                if d.arc_tail(lab)[1] in (1, 3) and d.arc_head(lab)[1] == 0:
                    return lab
            return min(d._ports)

        x = splice_arc(self)
        y = splice_arc(other)
        shift = max(self._ports)
        hx = self.arc_head(x)
        hy = other.arc_head(y)

        first = [list(t) for t in self.crossings]
        first[hx[0]][hx[1]] = y + shift
        second = [[lab + shift for lab in t] for t in other.crossings]
        second[hy[0]][hy[1]] = x
        return Diagram([tuple(t) for t in first + second]).canonical()

    def _r1_candidate(self):
        for face in self.faces():
            if len(face) != 1:
                continue
            ci, s = face[0]
            loop_slots = ((s - 1) % 4, s)
            other = tuple(k for k in range(4) if k not in loop_slots)
            return ci, (other,), loop_slots
        return None

    def _r2_candidate(self):
        for face in self.faces():
            if len(face) != 2:
                continue
            (c1, s1), (c2, s2) = face
            if c1 == c2:
                continue
            arc1 = self.crossings[c1][s1]
            arc2 = self.crossings[c2][s2]
            if arc1 == arc2:
                continue
            # removable when one bigon arc rides over at both crossings
            # and the other stays under at both
            a1_slots = {s1 % 2, (s2 - 1) % 4 % 2}
            a2_slots = {(s1 - 1) % 4 % 2, s2 % 2}
            if a1_slots == {1} and a2_slots == {0}:
                return c1, c2
            if a1_slots == {0} and a2_slots == {1}:
                return c1, c2
        return None

    def simplify(self, max_passes: int | None = None) -> "Diagram":
        """Greedy Reidemeister-1/2 reduction: to the fixpoint, or for at
        most max_passes moves. Each move removes crossings, so the
        fixpoint is reached."""
        d = self
        passes = itertools.count() if max_passes is None else range(max_passes)
        for _ in passes:
            if not d.crossings:
                break
            r1 = d._r1_candidate()
            if r1 is not None:
                ci, joins, drop_slots = r1
                d = d._splice({ci: joins}, {ci: drop_slots})
                continue
            r2 = d._r2_candidate()
            if r2 is not None:
                c1, c2 = r2
                straight = ((0, 2), (1, 3))
                d = d._splice({c1: straight, c2: straight})
                continue
            break
        return d


def _assemble(live, port_arc, heads, free_loops: int) -> Diagram:
    """Renumber live crossings into a fresh diagram.

    live: (original crossing id, original 4-tuple) pairs. port_arc maps
    each live port to its arc id; heads gives each arc's flow-in port.
    Components are walked from their lowest arc id, in the direction of
    that arc; labels count up along the walk; a crossing entered through
    its old slot 2 is rotated so the under-entry returns to slot 0.
    """
    if not live:
        return Diagram((), free_loops)
    arc_ports = {}
    for p, a in port_arc.items():
        arc_ports.setdefault(a, []).append(p)

    new_label = {}
    rot = {}
    counter = 1
    for a0 in sorted(arc_ports):
        if a0 in new_label:
            continue
        # a0 is the lowest arc of a component not yet numbered
        cur_arc, cur_head = a0, heads[a0]
        while cur_arc not in new_label:
            new_label[cur_arc] = counter
            counter += 1
            ci, s = cur_head
            if s == 0:
                rot[ci] = 0
            elif s == 2:
                rot[ci] = 2
            exit_port = (ci, _EXIT_SLOT[s])
            nxt = port_arc[exit_port]
            a, b = arc_ports[nxt]
            cur_head = b if exit_port == a else a
            cur_arc = nxt

    out = []
    for ci, _ in live:
        r = rot[ci]
        out.append(tuple(
            new_label[port_arc[(ci, (k + r) % 4)]] for k in range(4)))
    out.sort(key=lambda t: t[0])
    return Diagram(out, free_loops)


_PD_TOKEN = re.compile(
    r"X\s*\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


def parse_pd(text: str) -> Diagram:
    """PD text like "X[1,4,2,5] X[3,6,4,1]"; "" is the unknot; a JSON
    array of 4-element arrays is accepted too."""
    s = text.strip()
    if not s:
        return Diagram((), 1)
    if s.startswith("["):
        try:
            data = json.loads(s)
        except json.JSONDecodeError as exc:
            raise PDSyntaxError("bad PD JSON: %s" % exc) from None
        if not isinstance(data, list) or not all(
                isinstance(row, list) for row in data):
            raise PDSyntaxError("PD JSON must be an array of 4-arrays")
        return Diagram(tuple(tuple(row) for row in data))
    tuples = []
    pos = 0
    for m in _PD_TOKEN.finditer(s):
        if s[pos:m.start()].strip():
            raise PDSyntaxError("unexpected text %r" % s[pos:m.start()].strip())
        tuples.append(tuple(int(g) for g in m.groups()))
        pos = m.end()
    if s[pos:].strip() or not tuples:
        raise PDSyntaxError("unexpected text %r" % s[pos:].strip())
    return Diagram(tuples)

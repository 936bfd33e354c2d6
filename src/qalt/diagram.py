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

Ports are numbered flat: port p = 4*c + s is slot s of crossing c, so
integer order is the lexicographic order of the (c, s) pairs and "least
port" means the same in either form. The opposite slot is p ^ 2. A
diagram keeps, per port, the other port of its arc (_mate) and whether
the strand flows into the crossing there (_fin); faces(),
face_incidence(), component_map and arc_head are derived from these,
so the port layout is known to this module alone.

Smoothings and Reidemeister reductions splice ports and renumber on one
engine, as canonical() does, so the rules stay consistent: a fused arc
takes the label and direction of its lowest-labeled fragment, each
component is renumbered by traversal from its lowest arc, crossings
are rotated so the under-strand enters at slot 0, and sorted by that
label. The renumbering writes the port arrays of the new diagram
directly; __init__, which validates and orients its input, runs only
on diagrams built from outside (parse_pd, Diagram(...), mirror and
connected_sum). A spliced diagram is born canonical, its own
canonical() form, unless one of its components is over-only: such a
component is numbered from its lowest fragment but oriented by the
rule above, where canonical() would number it from that direction.
Either way its labels count up along each component, so its own
splices start their walks from the lowest arc of each component and
the fused arcs only.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter

from ._util import _join


# the slot pairs that the r-smoothing of a crossing joins, r = 0 and 1
_SMOOTHINGS = (((0, 1), (2, 3)), ((0, 3), (1, 2)))


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


class Diagram:
    """Immutable PD-code diagram plus explicit crossing-free circles."""

    # set by _assemble: labels count up along each component's walk
    _walk_numbered = False
    # worked out on first use
    _connected = None
    _component_map = None

    def __init__(self, crossings=(), free_loops: int = 0):
        tuples = [tuple(t) for t in crossings]
        flat = list(itertools.chain.from_iterable(tuples))
        for t in tuples:
            if len(t) != 4:
                raise PDSyntaxError(
                    "crossing %r does not have 4 strands" % (t,))
            if not all(type(x) is int and x > 0 for x in t):
                raise PDSyntaxError(
                    "strand labels must be positive integers: %r" % (t,))
        if not isinstance(free_loops, int) or free_loops < 0:
            raise ValueError("free_loops must be a nonnegative integer")

        # pair each port with the other port of its arc: sorted by label,
        # the ports pair up two by two, the lower port first
        m = len(flat)
        order = sorted(range(m), key=flat.__getitem__)
        lows, highs = order[0::2], order[1::2]
        labels = list(map(flat.__getitem__, lows))
        if (labels != list(map(flat.__getitem__, highs))
                or len(set(labels)) != len(labels)):
            for lab, k in Counter(flat).items():
                if k != 2:
                    raise InvalidStrandLabels(
                        "label %d appears %d times (want 2)" % (lab, k))
        mate = [0] * m
        for p, q in zip(lows, highs):
            mate[p] = q
            mate[q] = p

        # walk each component once, from its lowest arc entering at that
        # arc's later occurrence and leaving by the opposite slot
        fin = [None] * m
        starts = []
        over_only = False
        for lab, low in zip(labels, lows):
            if fin[low] is not None:
                continue
            start = cur = mate[low]
            entries = []
            while True:
                entries.append(cur)
                cur = mate[cur ^ 2]
                if cur == start:
                    break
            slots = set(map((3).__and__, entries))
            under0, under2 = 0 in slots, 2 in slots
            if under0 and under2:
                raise InvalidStrandLabels(
                    "labels force conflicting orientations on the "
                    "component of arc %d" % lab)
            over_only = over_only or not (under0 or under2)
            forward = not under2
            back = not forward
            for p in entries:
                fin[p] = forward
                fin[p ^ 2] = back
            starts.append(start)
        self._set_ports(tuple(tuples), flat, mate, fin, starts, free_loops,
                        over_only)

    def _set_ports(self, crossings, flat, mate, fin, starts, free_loops,
                   over_only):
        self.crossings = crossings
        self.free_loops = free_loops
        self._flat = flat
        self._mate = mate
        self._fin = fin
        self._starts = starts
        self._signs = tuple([1 if f else -1 for f in fin[3::4]])
        self.strand_count = len(flat) >> 1
        self.component_count = len(starts) + free_loops
        self._over_only = over_only

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

    @property
    def component_map(self) -> dict:
        """Arc label -> component number, components numbered in order
        of their lowest labels."""
        if self._component_map is None:
            flat, mate = self._flat, self._mate
            cmap = {}
            for cid, start in enumerate(self._starts):
                cur = start
                while True:
                    cmap[flat[cur ^ 2]] = cid
                    cur = mate[cur ^ 2]
                    if cur == start:
                        break
            self._component_map = cmap
        return self._component_map

    def is_connected(self) -> bool:
        if not self.crossings:
            return self.free_loops == 1
        if self._connected is None:
            self._connected = self.shadow_pieces() == 1
        return self._connected and self.free_loops == 0

    def is_alternating(self) -> bool:
        """Whether every arc joins an under slot (even) to an over slot
        (odd), so that over and under alternate along each component;
        true when there are no crossings. Slot 0 flows in and slot 2 out,
        so an arc between two under slots ends at a slot 0; where none
        does, every even port's mate is odd, and there are as many odd
        ports as even ones, so no arc joins two over slots either. It is
        enough that every slot-0 port's mate is odd."""
        return all(map((1).__and__, self._mate[0::4]))

    def shadow_pieces(self) -> int:
        """Pieces of the shadow that hold crossings: each arc, seen from
        its lower port, joins the crossings at its ends."""
        if len(self._starts) == 1:
            # one closed strand runs through every crossing
            return 1
        parts = len(self.crossings)
        parent = list(range(parts))
        for p, q in enumerate(self._mate):
            if p < q:
                parts -= _join(parent, p >> 2, q >> 2)
        return parts

    def _head_port(self, lab: int) -> int:
        p = self._flat.index(lab)
        return p if self._fin[p] else self._mate[p]

    def arc_head(self, lab: int):
        """The port the arc flows into."""
        p = self._head_port(lab)
        return (p >> 2, p & 3)

    def sign(self, c: int) -> int:
        self._check_crossing(c)
        return self._signs[c]

    def writhe(self) -> int:
        return sum(self._signs)

    def _check_crossing(self, c: int):
        if not isinstance(c, int) or not 0 <= c < len(self.crossings):
            raise InvalidCrossing("no crossing %r" % (c,))

    # faces

    def _face_step(self) -> list:
        """The port entered next along its face after each port:
        entering at slot s, leave by slot s - 1 and enter at the far end
        of that arc."""
        mate = self._mate
        nxt = mate[:]
        nxt[0::4], nxt[1::4] = mate[3::4], mate[0::4]
        nxt[2::4], nxt[3::4] = mate[1::4], mate[2::4]
        return nxt

    def _port_faces(self):
        """faces() on port numbers: lists of entry ports, each starting
        at its least port, in increasing order of that port; and the
        number of the face entered at each port."""
        nxt = self._face_step()
        face_of = [-1] * len(nxt)
        faces = []
        for start in range(len(nxt)):
            if face_of[start] >= 0:
                continue
            fi = len(faces)
            orbit = []
            cur = start
            while True:
                orbit.append(cur)
                face_of[cur] = fi
                cur = nxt[cur]
                if cur == start:
                    break
            faces.append(orbit)
        return faces, face_of

    def face_count(self) -> int:
        """The number of faces() of the shadow. On a planar diagram each
        piece of the shadow with c crossings bounds c + 2 faces (Euler's
        formula), so the count is crossings + 2 * shadow_pieces(); a code
        that fixes no planar embedding gives fewer."""
        return len(self._port_faces()[0])

    def faces(self):
        """Face orbits of the 4-valent shadow, as tuples of entry ports.

        Entering a crossing at port (c, s) exits at (c, s-1 mod 4); the
        next entry is the other endpoint of the arc at the exit port.
        Faces are listed by their lexicographically least entry port.
        """
        return tuple(tuple((p >> 2, p & 3) for p in face)
                     for face in self._port_faces()[0])

    def face_incidence(self):
        """The faces met by each crossing, numbered by their position in
        faces(), and their checkerboard coloring.

        Returns (face count, corners, colors). corners[c][k] is the face
        at corner k of crossing c, the corner between slots k and k+1.
        colors[f] is 0 or 1 and the first face of each piece of the
        shadow is colored 0; on a planar diagram the two faces beside an
        arc differ. Those are the faces entered at its two ports, so one
        search over the faces colors them.
        """
        faces, face_of = self._port_faces()
        mate = self._mate
        colors = [-1] * len(faces)
        for root in range(len(faces)):
            if colors[root] >= 0:
                continue
            colors[root] = 0
            reached = [root]
            for f in reached:
                other = 1 - colors[f]
                for p in faces[f]:
                    g = face_of[mate[p]]
                    if colors[g] < 0:
                        colors[g] = other
                        reached.append(g)
        # the face entered at slot k+1 holds corner k
        corners = list(zip(face_of[1::4], face_of[2::4], face_of[3::4],
                           face_of[0::4]))
        return len(faces), corners, colors

    # rendering / parsing

    def render(self) -> str:
        if self.free_loops and (self.crossings or self.free_loops > 1):
            raise ValueError("no PD text for diagrams with extra free loops")
        return " ".join(map("X[%d,%d,%d,%d]".__mod__, self.crossings))

    # rebuild helpers

    def canonical(self) -> "Diagram":
        """Deterministically renumbered copy: components ordered by lowest
        label, labels increasing along the traversal, tuples rotated so
        slot 0 is the under-entry, crossings sorted by slot-0 label.
        A diagram numbered by a splice without an over-only component,
        and one without crossings, is its own canonical form."""
        if not self.crossings or (self._walk_numbered
                                  and not self._over_only):
            return self
        flat = self._flat
        arcs = [(flat[p], p) for p, f in enumerate(self._fin) if f]
        return _assemble(self._mate, arcs, self.free_loops)

    def _splice(self, joins) -> "Diagram":
        """Remove crossings, rewiring their ports.

        joins maps crossing id -> pairs of slots that fuse into a strand
        passing straight through. A slot of a removed crossing that no
        pair names must share its arc with another such slot: that arc
        simply vanishes (the Reidemeister-1 loop). Chains of fused arcs
        that close up with no live endpoint become free loops.
        """
        flat, mate, fin = self._flat, self._mate, self._fin
        wire = {}
        for ci, pairs in joins.items():
            for s1, s2 in pairs:
                wire[4 * ci + s1] = 4 * ci + s2
                wire[4 * ci + s2] = 4 * ci + s1

        # other maps each live port to the far live end of its arc. Only
        # arcs through a removed crossing change: each such chain of
        # fragments is walked from one live end and takes its label and
        # direction from its lowest fragment
        other = mate[:]
        fused = []
        passed = set()
        for r in [4 * ci + k for ci in joins for k in range(4)]:
            p = mate[r]
            other[r] = -1
            if p >> 2 in joins or other[p] != r:
                continue
            q = r
            best = flat[p]
            forward = fin[q]
            while True:
                w = wire.get(q)
                if w is None:
                    break
                passed.add(q)
                passed.add(w)
                q = mate[w]
                if flat[w] < best:
                    best = flat[w]
                    forward = fin[q]
            other[p] = q
            other[q] = p
            fused.append((best, q if forward else p))
        # _assemble walks each component of the result from its lowest
        # arc. When labels count up along the walks here, every arc but
        # the lowest of its component meets the arc one label lower at a
        # crossing, so that lowest arc is fused or was the lowest of its
        # component here: those arcs are all the walks need
        if self._walk_numbered:
            heads = [s if fin[s] else mate[s] for s in self._starts]
        else:
            heads = [p for p, f in enumerate(fin) if f]
        arcs = [(flat[p], p) for p in heads if other[p] == mate[p]]

        # wired ports no open chain passed lie on circles of fused arcs
        loops = self.free_loops
        for w in wire:
            if w in passed:
                continue
            loops += 1
            cur = w
            while True:
                out = mate[cur]
                cur = wire[out]
                passed.add(out)
                passed.add(cur)
                if cur == w:
                    break

        return _assemble(other, arcs + fused, loops)

    # operations

    def smooth(self, c: int, r: int) -> "Diagram":
        """Replace crossing c by the r-resolution.

        The slots joined are _SMOOTHINGS[r]: r = 0 joins (0,1) and (2,3),
        r = 1 joins (0,3) and (1,2). The 0-resolution is the one whose
        coefficient in the bracket expansion is A.
        """
        self._check_crossing(c)
        if r not in (0, 1):
            raise InvalidCrossing("smoothing selector must be 0 or 1, got %r" % (r,))
        return self._splice({c: _SMOOTHINGS[r]})

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
            # alternating factors stay alternating; slot 0 always flows in
            mate, flat = d._mate, d._flat
            return min((flat[p] for p in range(0, len(flat), 4)
                        if mate[p] & 1), default=min(d._flat))

        x = splice_arc(self)
        y = splice_arc(other)
        shift = max(self._flat)
        hx = self._head_port(x)
        hy = other._head_port(y)

        first = list(self._flat)
        first[hx] = y + shift
        second = [lab + shift for lab in other._flat]
        second[hy] = x
        flat = first + second
        return Diagram([tuple(flat[k:k + 4])
                        for k in range(0, len(flat), 4)]).canonical()

    def _move(self):
        """The _splice joins of one Reidemeister move, or None: the
        first curl in port order, else the first removable bigon."""
        nxt = self._face_step()
        # a curl is a one-port face: the arc leaving slot s - 1 comes
        # straight back in at slot s, and the other two slots fuse
        for p, q in enumerate(nxt):
            if p == q:
                return {p >> 2: (((p + 1) & 3, (p + 2) & 3),)}
        # bigon faces (p, q) in face order, each met at its least port p
        flat = self._flat
        for p, q in enumerate(nxt):
            if q <= p or nxt[q] != p:
                continue
            if p >> 2 == q >> 2 or flat[p] == flat[q]:
                continue
            # removable when one bigon arc rides over at both crossings
            # and the other stays under at both: the entry slots differ
            # in parity
            if (p ^ q) & 1:
                return {p >> 2: ((0, 2), (1, 3)), q >> 2: ((0, 2), (1, 3))}
        return None

    def simplify(self, max_passes: int | None = None) -> "Diagram":
        """Greedy Reidemeister-1/2 reduction: to the fixpoint, or for at
        most max_passes moves. Each move removes crossings, so the
        fixpoint is reached."""
        d = self
        passes = itertools.count() if max_passes is None else range(max_passes)
        for _ in passes:
            joins = d._move()
            if joins is None:
                break
            d = d._splice(joins)
        return d


def _assemble(other, arcs, free_loops: int) -> Diagram:
    """Renumber the crossings that arcs run through into a fresh diagram.

    other maps each live port to the live port at the far end of its
    arc; arcs lists each arc as (arc id, flow-in port). Components are
    walked from their lowest arc id, in the direction of that arc;
    labels count up along the walk; a crossing entered through its old
    slot 2 is rotated so the under-entry returns to slot 0, and crossings
    are numbered in the order the walks enter them under, which sorts
    them by slot-0 label. Port s of new crossing k so comes from old port
    u ^ s, where u is the port the walk entered it under by, and the
    port arrays are written from the walk without a pass through
    __init__. An over-only component keeps the direction __init__ gives
    it: the head of its lowest arc is that arc's later port. Unless
    there is such a component, the result is born canonical: it is its
    own canonical form.
    """
    if not arcs:
        return Diagram((), free_loops)
    arcs.sort()
    label = [0] * len(other)
    head = [False] * len(other)
    unders = []  # the old under-entry port of each new crossing, in order
    comps = []  # (old head of the lowest arc, its label, len(unders))
    counter = 1
    for _, cur in arcs:
        if label[cur]:
            continue
        # the lowest arc of a component not yet numbered
        comps.append((cur, counter, len(unders)))
        while True:
            label[cur] = label[other[cur]] = counter
            head[cur] = True
            counter += 1
            if not cur & 1:
                unders.append(cur)
            cur = other[cur ^ 2]
            if label[cur]:
                break
    comps.append((None, counter, len(unders)))

    # new port 4 * k + s is old port u ^ s, u = unders[k] = 4 * c + rot
    old = []
    new = [0] * len(other)
    j = 0
    for u in unders:
        new[u] = j
        new[u ^ 1] = j + 1
        new[u ^ 2] = j + 2
        new[u ^ 3] = j + 3
        j += 4
        old += (u, u ^ 1, u ^ 2, u ^ 3)
    flat = [label[p] for p in old]
    mate = [new[other[p]] for p in old]
    fin = [head[p] for p in old]
    starts = []
    over_only = False
    for (h, lo, k), (_, hi, k1) in zip(comps, comps[1:]):
        p, q = new[h], new[other[h]]
        starts.append(max(p, q))
        if k == k1:
            # no under-entry: the head of the lowest arc is its later port
            over_only = True
            if p < q:
                for j, lab in enumerate(flat):
                    if lo <= lab < hi:
                        fin[j] = not fin[j]
    d = Diagram.__new__(Diagram)
    labels = iter(flat)
    d._set_ports(tuple(zip(labels, labels, labels, labels)), flat, mate, fin,
                 starts, free_loops, over_only)
    d._walk_numbered = True
    return d


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
    # split() puts the text around the crossings at every fifth place
    parts = _PD_TOKEN.split(s)
    for gap in parts[0::5]:
        if gap.strip():
            raise PDSyntaxError("unexpected text %r" % gap.strip())
    del parts[0::5]
    labels = map(int, parts)
    return Diagram(list(zip(labels, labels, labels, labels)))

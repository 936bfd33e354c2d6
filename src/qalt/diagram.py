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
the strand flows into the crossing there (_fin); crossing signs,
faces() and face_incidence() are derived from these. The port layout
is known to this module, and to one reader outside it: bracket's
frontier sweep reads the four ports of each crossing from _mate and
takes the crossing at the far end of each arc as p >> 2.

Smoothings, Reidemeister reductions and canonical() run on one engine,
_splice, so the rules stay consistent. One pass over the port pairs
that fuse at the removed crossings keeps, at each live end of a chain
of fused arcs, the chain's other live end and its lowest label; with
untwist, a chain that closes a curl adds the curl's crossing to the
pass. A fused arc takes the label and direction of its lowest-labeled
fragment. When no crossing is left, the result is the free loops the
pass counted, and nothing is renumbered. Otherwise each component is
renumbered by traversal from its lowest arc, crossings are rotated so
the under-strand enters at slot 0, and sorted by that label; canonical()
is the splice that removes nothing. The renumbering writes the port
arrays of the new diagram directly, and the result is born canonical:
it is its own canonical() form, and its labels count up along each
component, so its own splices start their walks from the lowest arc of
each component and the fused arcs only. The one exception is a result
with an over-only component: the walk numbers it from its lowest
fragment, but the rule above orients it by its labels, so canonical()
would renumber it. That result is built by __init__, which validates
and orients its input and otherwise runs only on diagrams built from
outside (parse_pd, Diagram(...), mirror and connected_sum).

A child takes what its parent proves. The smoothing of an alternating
diagram is alternating: each arc the splice fuses runs from the far
ends of two arcs that met adjacent slots, one even and one odd, of a
removed crossing, and in an alternating diagram those far ends are one
odd and one even; so smooth sets the child's alternation. check_planar
and face_incidence count a diagram's faces and mark it _planar; every
splice keeps the mark, and check_planar trusts it. Where the parent is
marked and its pieces are known, smooth counts the pieces of a child of
several components from the parent's faces: the r-smoothing at c merges
the faces at two opposite corners of c, and on a planar diagram it
splits c's piece exactly when they are one face; a part that the
untwisting clears of crossings is a free loop, not a piece.

A diagram that simplify() has seen at its fixpoint, where _move() finds
no Reidemeister move, carries the mark _fixpoint, and simplify returns
it at once. canonical() passes the mark to its copy, and the untwisted
smoothing (smooth with untwist) of a marked alternating diagram is
marked too, without a scan, because it is reduced. It is alternating,
as above, and:

- It has no removable bigon. Along a face of an alternating diagram
  the entry slots keep their parity: leaving by slot s - 1 flips it,
  and the arc to the next entry flips it back. So a bigon's two entry
  slots have the same parity, and _move removes a bigon only where
  they differ.
- It has no curl. A curl is an arc between adjacent slots of one
  crossing. The arcs that the splice leaves alone were arcs of the
  marked diagram, which has none, and untwist checks every chain that
  it changes and removes each curl among them.
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


class NoEmbedding(ValueError):
    """The PD code fixes no planar embedding (Diagram.check_planar)."""


class Diagram:
    """Immutable PD-code diagram plus explicit crossing-free circles.

    _fill writes every field, for __init__ and _splice alike: the port
    arrays and five marks. _walk_numbered, set by _splice, means labels
    count up along each component's walk and the diagram is its own
    canonical form; _planar is set by _planar_faces and kept by
    splices; _pieces and _alternating start None and _fixpoint False,
    until worked out or taken from a parent (see the module notes)."""

    __slots__ = ("crossings", "free_loops", "component_count", "_flat",
                 "_mate", "_fin", "_starts", "_walk_numbered", "_pieces",
                 "_alternating", "_fixpoint", "_planar")

    def __init__(self, crossings=(), free_loops: int = 0):
        tuples = [tuple(t) for t in crossings]
        flat = list(itertools.chain.from_iterable(tuples))
        # one pass over flat checks every crossing; the loop only names
        # the first bad one
        if ({*map(len, tuples)} != {4} or {*map(type, flat)} != {int}
                or min(flat) < 1):
            for t in tuples:
                if len(t) != 4:
                    raise PDSyntaxError(
                        "crossing %r does not have 4 strands" % (t,))
                if not all(type(x) is int and x > 0 for x in t):
                    raise PDSyntaxError(
                        "strand labels must be positive integers: %r" % (t,))
        if type(free_loops) is not int or free_loops < 0:
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
            forward = not under2
            back = not forward
            for p in entries:
                fin[p] = forward
                fin[p ^ 2] = back
            starts.append(start)
        self._fill(tuple(tuples), free_loops, flat, mate, fin, starts,
                   False, False)

    def _fill(self, crossings, free_loops, flat, mate, fin, starts,
              walk_numbered, planar) -> "Diagram":
        """Write every field, the marks not given unknown; returns self."""
        self.crossings = crossings
        self.free_loops = free_loops
        self.component_count = len(starts) + free_loops
        self._flat, self._mate, self._fin = flat, mate, fin
        self._starts = starts
        self._walk_numbered = walk_numbered
        self._planar = planar
        self._fixpoint = False
        self._pieces = self._alternating = None
        return self

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
        return self.shadow_pieces() == 1 and self.free_loops == 0

    def is_alternating(self) -> bool:
        """Whether every arc joins an under slot (even) to an over slot
        (odd), so that over and under alternate along each component;
        true when there are no crossings. Slot 0 flows in and slot 2 out,
        so an arc between two under slots ends at a slot 0; where none
        does, every even port's mate is odd, and there are as many odd
        ports as even ones, so no arc joins two over slots either. It is
        enough that every slot-0 port's mate is odd."""
        if self._alternating is None:
            self._alternating = all(map((1).__and__, self._mate[0::4]))
        return self._alternating

    def shadow_pieces(self) -> int:
        """Pieces of the shadow that hold crossings: each arc, named
        once by the port it flows into, joins the crossings at its two
        ends."""
        if len(self._starts) == 1:
            # one closed strand runs through every crossing
            return 1
        if self._pieces is None:
            mate = self._mate
            parent = list(range(len(self.crossings)))
            parts = len(parent)
            for p in itertools.compress(range(len(mate)), self._fin):
                parts -= _join(parent, p >> 2, mate[p] >> 2)
            self._pieces = parts
        return self._pieces

    def _head_port(self, lab: int) -> int:
        p = self._flat.index(lab)
        return p if self._fin[p] else self._mate[p]

    def sign(self, c: int) -> int:
        """+1 when the over-strand runs from slot 3 to slot 1, else -1."""
        self._check_crossing(c)
        return 1 if self._fin[4 * c + 3] else -1

    def writhe(self) -> int:
        return 2 * sum(self._fin[3::4]) - len(self.crossings)

    def _check_crossing(self, c: int):
        if type(c) is not int or not 0 <= c < len(self.crossings):
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

    def _planar_faces(self):
        """_port_faces(), once it has marked the diagram _planar; raises
        NoEmbedding unless the faces number crossings + 2 per piece of
        the shadow (Euler's formula). A code that fixes no planar
        embedding has fewer, no checkerboard graphs, and a bracket and
        Jones polynomial that are not those of any link."""
        faces, face_of = self._port_faces()
        planar = len(self.crossings) + 2 * self.shadow_pieces()
        if len(faces) != planar:
            raise NoEmbedding("face count %d is not %d, crossings + 2 per "
                              "piece of the shadow: the PD code is not "
                              "planar" % (len(faces), planar))
        self._planar = True
        return faces, face_of

    def check_planar(self):
        """Mark the diagram _planar, or raise NoEmbedding (see
        _planar_faces). Smoothings and R1/R2 moves keep a planar diagram
        planar, so a marked diagram returns at once."""
        if not self._planar:
            self._planar_faces()

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
        faces(), and their checkerboard coloring, or NoEmbedding (see
        _planar_faces).

        Returns (face count, corners, colors). corners[c][k] is the face
        at corner k of crossing c, the corner between slots k and k+1.
        colors[f] is 0 or 1, the first face of each piece of the shadow
        is colored 0, and the two faces beside an arc differ. Those are
        the faces entered at its two ports, so one search over the faces
        colors them.
        """
        faces, face_of = self._planar_faces()
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
        return " ".join(["X[%d,%d,%d,%d]" % t for t in self.crossings])

    # rebuild helpers

    def canonical(self) -> "Diagram":
        """Deterministically renumbered copy: components ordered by lowest
        label, labels increasing along the traversal, tuples rotated so
        slot 0 is the under-entry, crossings sorted by slot-0 label.
        A diagram without crossings, and one whose port arrays a splice
        wrote, is its own canonical form. The copy is the splice that
        removes nothing, and it keeps the marks and what self has worked
        out."""
        if not self.crossings or self._walk_numbered:
            return self
        d = self._splice([])
        d._fixpoint, d._pieces = self._fixpoint, self._pieces
        d._alternating = self._alternating
        return d

    def _splice(self, joins, untwist: bool = False) -> "Diagram":
        """Remove crossings, rewiring their ports, and renumber the rest
        (see the module notes).

        joins lists port pairs (a, b) of one crossing that fuse into a
        strand passing straight through; the crossings they name are
        removed. Where joins names one pair of a crossing, its other two
        ports must bound a curl's loop, which vanishes (the
        Reidemeister-1 loop). With untwist, a chain whose two live ends
        are adjacent slots of a live crossing is such a loop, and that
        crossing's other two slots are added to joins, which grows as it
        is read.

        At each live end of a chain of fused arcs, other keeps its other
        live end, and ends the chain's lowest label and the end it flows
        into; a join whose two ends already end one chain closes a free
        loop. The walks then number each component from its lowest arc,
        in that arc's direction. Crossings are numbered in the order the
        walks enter them under, and port s of new crossing k is old port
        u ^ s, where u is the port the walk entered it under by.
        """
        flat, mate, fin = self._flat, self._mate, self._fin
        loops = self.free_loops
        other = mate[:]
        # chain end -> (the chain's lowest label, the end it flows into);
        # an arc that no join has touched is not listed
        ends = {}
        cut = set()
        for a, b in joins:
            cut.add(a >> 2)
            x = other[a]
            y = other[b]
            if x == b:
                loops += 1
                continue
            other[x] = y
            other[y] = x
            # the chains x..a and b..y become x..y
            low, head = ends.get(a) or (flat[a], a if fin[a] else x)
            low_b, head_b = ends.get(b) or (flat[b], b if fin[b] else y)
            if low < low_b:
                ends[x] = ends[y] = (low, x if head == x else y)
            else:
                ends[x] = ends[y] = (low_b, y if head_b == y else x)
            if untwist and x >> 2 == y >> 2 and (x ^ y) & 1 \
                    and x >> 2 not in cut:
                # x and y bound a curl's loop; s is its later slot
                s = y if (y - x) & 3 == 1 else x
                e = s & ~3
                cut.add(e >> 2)
                joins.append((e | (s + 1) & 3, e | (s + 2) & 3))
        if len(cut) == len(self.crossings):
            return Diagram.__new__(Diagram)._fill(
                (), loops, [], [], [], [], False, self._planar)

        # When labels count up along the walks here, every arc but the
        # lowest of its component meets the arc one label lower at a
        # crossing, so that lowest arc is fused or was the lowest of its
        # component here: those arcs are all the walks need
        arcs = []
        for p in (self._starts if self._walk_numbered
                  else itertools.compress(range(len(fin)), fin)):
            if not fin[p]:
                p = mate[p]
            if other[p] == mate[p] and p >> 2 not in cut:
                arcs.append((flat[p], p))
        for x, (low, head) in ends.items():
            if head == x and x >> 2 not in cut:
                arcs.append((low, x))
        arcs.sort()

        m = len(mate)
        label = [0] * m
        entry = [False] * m  # whether the walks enter at the port
        unders = []  # the old under-entry port of each new crossing
        firsts = []  # the old head of each component's lowest arc
        over_only = False
        counter = 1
        for _, cur in arcs:
            if label[cur]:
                continue
            firsts.append(cur)
            entered = len(unders)
            while True:
                label[cur] = label[other[cur]] = counter
                entry[cur] = True
                counter += 1
                if not cur & 1:
                    unders.append(cur)
                cur = other[cur ^ 2]
                if label[cur]:
                    break
            over_only = over_only or len(unders) == entered

        # new port 4 * k + s is old port u ^ s, u = unders[k]
        new = [0] * m
        old = []
        j = 0
        for u in unders:
            new[u] = j
            new[u ^ 1] = j + 1
            new[u ^ 2] = j + 2
            new[u ^ 3] = j + 3
            j += 4
            old += (u, u ^ 1, u ^ 2, u ^ 3)
        flat = [label[p] for p in old]
        labels = iter(flat)
        crossings = tuple(zip(labels, labels, labels, labels))
        if over_only:
            d = Diagram(crossings, loops)
            d._planar = self._planar
            return d
        # __init__ starts each walk at the later port of the lowest arc
        return Diagram.__new__(Diagram)._fill(
            crossings, loops, flat, [new[other[p]] for p in old],
            [entry[p] for p in old],
            [max(new[h], new[other[h]]) for h in firsts], True, self._planar)

    # operations

    def smooth(self, c: int, r: int, *, untwist: bool = False) -> "Diagram":
        """Replace crossing c by the r-resolution.

        The slots joined are _SMOOTHINGS[r]: r = 0 joins (0,1) and (2,3),
        r = 1 joins (0,3) and (1,2). The 0-resolution is the one whose
        coefficient in the bracket expansion is A.

        With untwist, the curls the smoothing makes are removed in the
        same splice. A closed corner of c whose face is a bigon with
        crossing d turns d into a curl. Removing that curl closes the
        face beyond d's fused slots, which may be a bigon in turn, and
        so on along the twist region. A curl's loop is then a chain of
        fused arcs whose two live ends are adjacent slots of one
        crossing, and the splice checks each chain it changes. The
        result is isotopic to the plain smoothing; curls and bigons that
        the splice did not make are left to simplify(). The result takes
        its alternation, its _fixpoint mark and, where self is planar,
        its piece count from self (see the module notes).
        """
        self._check_crossing(c)
        if type(r) is not int or r not in (0, 1):
            raise InvalidCrossing("smoothing selector must be 0 or 1, got %r" % (r,))
        c *= 4
        (s1, s2), (s3, s4) = _SMOOTHINGS[r]
        d = self._splice([(c + s1, c + s2), (c + s3, c + s4)], untwist)
        if len(d._starts) > 1 and self._planar and (
                len(self._starts) == 1 or self._pieces is not None):
            # the 0-smoothing merges the faces at corners 1 and 3 of c,
            # the 1-smoothing those at 0 and 2, and corner k's face is
            # the one entered at slot k + 1; on a planar diagram the
            # smoothing splits c's piece exactly when they are one face
            mate = self._mate
            cur = start = c + 2 - r
            stop = c + 3 * r
            while True:
                cur = mate[cur & ~3 | (cur - 1) & 3]
                if cur == stop or cur == start:
                    break
            d._pieces = (self.shadow_pieces() + (cur == stop)
                         - d.free_loops + self.free_loops)
        if self.is_alternating():
            d._alternating = True
            d._fixpoint = untwist and self._fixpoint
        return d

    def mirror(self) -> "Diagram":
        """Switch every crossing; tuples re-rooted at the new under-entry."""
        out = []
        for t, positive in zip(self.crossings, self._fin[3::4]):
            if positive:
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
                c = p & ~3
                a, b = c | (p + 1) & 3, c | (p + 2) & 3
                return [(a, b)]
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
                # both crossings go: slots 0, 2 and 1, 3 fuse at each
                return [(x | s, x | s | 2) for x in (p & ~3, q & ~3)
                        for s in (0, 1)]
        return None

    def simplify(self, max_passes: int | None = None) -> "Diagram":
        """Greedy Reidemeister-1/2 reduction: to the fixpoint, or for at
        most max_passes moves. Each move removes crossings, so the
        fixpoint is reached. A diagram where _move() finds nothing is
        marked so, and a marked diagram is returned at once."""
        d = self
        if d._fixpoint:
            return d
        passes = itertools.count() if max_passes is None else range(max_passes)
        for _ in passes:
            joins = d._move()
            if joins is None:
                d._fixpoint = True
                break
            d = d._splice(joins)
        return d


_PD_TOKEN = re.compile(
    r"X\s*\[\s*([0-9]+)\s*,\s*([0-9]+)\s*,\s*([0-9]+)\s*,\s*([0-9]+)\s*\]")


def parse_pd(text: str) -> Diagram:
    """PD text like "X[1,4,2,5] X[3,6,4,1]"; "" is the unknot; a JSON
    array of 4-element arrays is accepted too."""
    s = text.strip()
    if not s:
        return Diagram((), 1)
    if s.startswith("["):
        try:
            data = json.loads(s)
        except (json.JSONDecodeError, RecursionError) as exc:
            # json.loads recurses once per nesting level
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

import hashlib
import itertools
import random
from collections import Counter

import pytest

from conftest import braid_closure
from qalt import corpus
from qalt.diagram import (
    Diagram,
    DisconnectedDiagram,
    EmptyDiagram,
    InvalidCrossing,
    InvalidStrandLabels,
    PDSyntaxError,
    parse_pd,
)


def test_parse_trefoil():
    d = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
    assert len(d.crossings) == 3
    assert d.component_count == 1
    assert d.strand_count == 6
    assert d.is_connected()


def test_parse_empty_is_unknot():
    d = parse_pd("")
    assert d.crossings == ()
    assert d.free_loops == 1
    assert d.component_count == 1
    assert d.is_connected()


def test_parse_curl():
    d = parse_pd("X[1,1,2,2]")
    assert len(d.crossings) == 1
    assert d.component_count == 1


def test_parse_json_form():
    d = parse_pd("[[1,4,2,5],[3,6,4,1],[5,2,6,3]]")
    assert d == corpus.trefoil()


def test_parse_rejects_garbage():
    with pytest.raises(PDSyntaxError):
        parse_pd("X[1,2,3]")
    with pytest.raises(PDSyntaxError):
        parse_pd("X[1,4,2,5] nope")
    with pytest.raises(PDSyntaxError):
        parse_pd("[[1,2],[3,4]]")
    with pytest.raises(InvalidStrandLabels):
        parse_pd("X[1,1,1,2] X[2,3,3,4]")


def test_render_round_trip():
    for entry in corpus.entries():
        d = entry.diagram
        if not d.crossings:
            assert parse_pd(d.render()) == d
            continue
        assert parse_pd(d.render()) == d
        c = d.canonical()
        assert parse_pd(c.render()) == c


def test_canonical_idempotent_on_corpus():
    for entry in corpus.entries():
        c = entry.diagram.canonical()
        assert c.canonical() == c


def test_signs_and_writhe():
    # the bundled family is left-handed: every crossing negative
    for name, d, w in [
        ("hopf", corpus.hopf(), -2),
        ("trefoil", corpus.trefoil(), -3),
        ("torus6", corpus.torus(6), -6),
    ]:
        assert all(d.sign(c) == -1 for c in range(len(d.crossings))), name
        assert d.writhe() == w
    # positive curl: the over-strand runs slot 3 -> slot 1
    assert parse_pd("X[1,1,2,2]").sign(0) == 1
    assert parse_pd("X[2,1,1,2]").sign(0) == -1
    # figure-eight balances
    assert corpus.figure_eight().writhe() == 0
    assert sorted(corpus.figure_eight().sign(c) for c in range(4)) == [-1, -1, 1, 1]


def test_sign_and_smooth_reject_a_missing_crossing():
    d = corpus.trefoil()
    assert d.sign(1) == -1
    with pytest.raises(InvalidCrossing):
        d.sign(3)
    with pytest.raises(InvalidCrossing):
        d.smooth(0, 2)


def test_torus_generator_reproduces_bundled_codes():
    assert corpus.torus(2) == corpus.hopf()
    assert corpus.torus(3) == corpus.trefoil()
    for n in range(2, 8):
        d = corpus.torus(n)
        assert len(d.crossings) == n
        assert d.component_count == (2 if n % 2 == 0 else 1)
        assert d.writhe() == -n
        assert d.is_connected()


def test_mirror_involution_and_writhe():
    for entry in corpus.entries():
        d = entry.diagram
        m = d.mirror()
        assert m.mirror() == d
        assert m.writhe() == -d.writhe()
        assert m.component_count == d.component_count


def test_faces_euler():
    for entry in corpus.entries():
        d = entry.diagram
        n = len(d.crossings)
        if n == 0:
            continue
        faces = d.faces()
        assert len(faces) == n + 2
        assert sum(len(f) for f in faces) == 4 * n


def test_faces_shapes():
    assert sorted(len(f) for f in corpus.hopf().faces()) == [2, 2, 2, 2]
    assert sorted(len(f) for f in corpus.curl().faces()) == [1, 1, 2]
    assert sorted(len(f) for f in corpus.trefoil().faces()) == [2, 2, 2, 3, 3]


def test_smooth_curl():
    d = corpus.curl()
    assert d.smooth(0, 0) == Diagram((), 2)
    assert d.smooth(0, 1) == Diagram((), 1)


def test_smooth_trefoil():
    # left-handed trefoil: the 0-resolution unwinds into a two-kink chain,
    # the 1-resolution is the two-crossing clasp
    d = corpus.trefoil()
    l0 = d.smooth(0, 0)
    l1 = d.smooth(0, 1)
    assert len(l0.crossings) == 2 and len(l1.crossings) == 2
    assert l0.component_count == 1
    assert l1.component_count == 2
    assert l0.simplify().crossings == () and l0.simplify().free_loops == 1
    assert l1.simplify() == l1  # the clasp does not reduce


def test_smooth_component_counts():
    # self-crossing: one resolution splits off a circle, the other does not;
    # crossing between two components: both resolutions merge them
    for entry in corpus.entries():
        d = entry.diagram
        for c, t in enumerate(d.crossings):
            deltas = sorted(
                d.smooth(c, r).component_count - d.component_count
                for r in (0, 1))
            if d.component_map[t[0]] == d.component_map[t[1]]:
                assert deltas == [0, 1], (entry.name, c)
            else:
                assert deltas == [-1, -1], (entry.name, c)


def test_simplify_curl_chain():
    assert corpus.curl().simplify() == Diagram((), 1)
    # double kink
    d = parse_pd("X[1,2,2,3] X[3,4,4,1]")
    # both crossings are kinks; whatever order, the unknot remains
    assert d.simplify().component_count == 1
    assert d.simplify().crossings == ()


def test_simplify_r2_pair():
    # two strands crossing twice, one passing fully over: reducible
    d = corpus.hopf().smooth(0, 0)  # one-crossing kink
    assert d.simplify() == Diagram((), 1)
    r2 = parse_pd("X[2,3,1,4] X[1,3,2,4]")
    assert r2.component_count == 2
    s = r2.simplify()
    assert s.crossings == ()
    assert s.component_count == 2
    # the alternating clasp is not a Reidemeister-2 pair, nor a curl
    assert corpus.hopf()._move() is None


def test_simplify_preserves_trefoil():
    d = corpus.trefoil()
    assert d.simplify() == d
    assert corpus.hopf().simplify() == corpus.hopf()


def test_connected_sum_counts():
    s = corpus.hopf_hopf()
    assert len(s.crossings) == 4
    assert s.component_count == 3
    assert s.is_connected()
    t = corpus.hopf_trefoil()
    assert len(t.crossings) == 5
    assert t.component_count == 2
    assert t.is_connected()


def test_connected_sum_unknot_identity():
    d = corpus.trefoil()
    assert d.connected_sum(corpus.unknot()) == d
    assert corpus.unknot().connected_sum(d) == d


def test_connected_sum_mirror_writhe_cancels():
    d = corpus.trefoil()
    s = d.connected_sum(d.mirror())
    assert s.writhe() == 0
    assert len(s.crossings) == 6


def test_connected_sum_errors():
    with pytest.raises(EmptyDiagram):
        corpus.hopf().connected_sum(Diagram((), 0))
    with pytest.raises(DisconnectedDiagram):
        corpus.hopf().connected_sum(Diagram((), 2))


def test_unoriented_over_component():
    # a circle lying entirely over another: orientations still resolve
    d = parse_pd("X[1,3,2,4] X[2,4,1,3]")
    assert d.component_count == 2
    assert len(d._fin) == 8 and None not in d._fin


def test_free_loop_splits_connectivity():
    d = Diagram(corpus.hopf().crossings, free_loops=1)
    assert not d.is_connected()
    assert d.component_count == 3


def _orientations(crossings):
    """Every port flow (True = into the crossing) that gives each arc one
    head and one tail, makes slot 0 flow in and slot 2 flow out, and
    makes the two over-ports of a crossing flow oppositely."""
    ports = {}
    for ci, t in enumerate(crossings):
        for s, lab in enumerate(t):
            ports.setdefault(lab, []).append((ci, s))
    arcs = sorted(ports)
    for heads in itertools.product((0, 1), repeat=len(arcs)):
        flow = {}
        for lab, h in zip(arcs, heads):
            a, b = ports[lab]
            flow[a], flow[b] = h == 0, h == 1
        if all(flow[(c, 0)] and not flow[(c, 2)]
               and flow[(c, 1)] != flow[(c, 3)]
               for c in range(len(crossings))):
            yield flow


def test_orientation_matches_brute_force():
    rng = random.Random(5)
    valid = conflicts = 0
    for _ in range(3000):
        n = rng.randint(1, 4)
        labels = [lab for lab in range(1, 2 * n + 1) for _ in range(2)]
        rng.shuffle(labels)
        crossings = [tuple(labels[4 * k:4 * k + 4]) for k in range(n)]
        solutions = list(_orientations(crossings))
        if not solutions:
            conflicts += 1
            with pytest.raises(InvalidStrandLabels):
                Diagram(crossings)
            continue
        valid += 1
        fin = Diagram(crossings)._fin
        assert {(p >> 2, p & 3): f for p, f in enumerate(fin)} in solutions
    assert valid > 1000 and conflicts > 1000


# golden digest of the kernel: every rule of smoothing, reduction,
# renumbering, orientation and face order feeds it

CURLS = (Diagram([(2, 1, 1, 2)]), Diagram([(1, 1, 2, 2)]))


def _kernel_corpus():
    """Seeded braid closures of 2-5 strands, relabelled with sparse
    labels; the connected ones are also summed with curls of either
    form."""
    rng = random.Random(20240801)
    out = []
    for _ in range(48):
        strands = rng.randint(2, 5)
        word = [rng.randint(1, strands - 1) * rng.choice((1, -1))
                for _ in range(rng.randint(1, 11))]
        d = braid_closure(word, strands)
        if d.is_connected():
            for _ in range(rng.randint(0, 2)):
                d = d.connected_sum(rng.choice(CURLS))
        labels = sorted({x for t in d.crossings for x in t})
        image = rng.sample(range(1, 3 * len(labels) + 1), len(labels))
        perm = dict(zip(labels, image))
        out.append(Diagram([tuple(perm[x] for x in t) for t in d.crossings]))
    return out


def _kernel_family(d):
    yield d
    for c in range(len(d.crossings)):
        for r in (0, 1):
            yield d.smooth(c, r)
    yield d.simplify()
    yield d.simplify(1)
    yield d.canonical()
    yield d.mirror()


def _kernel_facts(d) -> str:
    labels = sorted(d.component_map)
    return repr((d.crossings, d.free_loops,
                 tuple(d.sign(c) for c in range(len(d.crossings))),
                 sorted(d.component_map.items()),
                 tuple(d.arc_head(lab) for lab in labels),
                 d.faces(), d.is_connected()))


KERNEL_DIGEST = (
    "5b2318b808672bd19d3e220747e45a691b6a369e667fdd3fe42a14fce126f744")


def test_kernel_golden_digest():
    h = hashlib.sha256()
    for d in _kernel_corpus():
        for e in _kernel_family(d):
            h.update(_kernel_facts(e).encode())
    assert h.hexdigest() == KERNEL_DIGEST


def test_fresh_diagram_canonicalises_like_its_source():
    for d in _kernel_corpus():
        for e in _kernel_family(d):
            fresh = Diagram(e.crossings, e.free_loops)
            assert fresh.canonical() == e.canonical()


def _alternates_along_components(d) -> bool:
    """Oracle for is_alternating: walk every component through the label
    tuples, passing crossing c from slot s to slot s + 2, and check that
    the passages go over (odd s) and under (even s) in turn, the last
    passage against the first."""
    ends = {}
    for c, t in enumerate(d.crossings):
        for s, lab in enumerate(t):
            ends.setdefault(lab, []).append((c, s))
    seen = set()
    for start in sorted(p for pair in ends.values() for p in pair):
        if start in seen:
            continue
        overs = []
        c, s = start
        while (c, s) not in seen:
            seen.update(((c, s), (c, s ^ 2)))
            overs.append(s & 1)
            out = (c, s ^ 2)
            a, b = ends[d.crossings[c][s ^ 2]]
            c, s = b if a == out else a
        if any(x == y for x, y in zip(overs, overs[1:] + overs[:1])):
            return False
    return True


def test_is_alternating_matches_a_walk_along_the_components():
    rng = random.Random(20261019)
    cases = [e.diagram for e in corpus.entries()]
    cases += [Diagram((), 1), Diagram((), 3),
              Diagram(corpus.hopf().crossings, free_loops=2)]
    for _ in range(30):
        strands = rng.randint(2, 5)
        word = [rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 12))]
        word = [g if g % 2 else -g for g in word]
        # alternating, then one and two letters switched
        for flips in range(3):
            w = list(word)
            for i in rng.sample(range(len(w)), min(flips, len(w))):
                w[i] = -w[i]
            d = braid_closure(w, strands)
            cases += [d, d.mirror()]
            if d.is_connected():
                cases += [d.connected_sum(corpus.curl()),
                          d.connected_sum(rng.choice(CURLS))]
    verdicts = Counter()
    for d in cases:
        for e in _kernel_family(d):
            want = _alternates_along_components(e)
            assert e.is_alternating() == want, e
            verdicts[want] += 1
    assert verdicts[True] >= 1000 and verdicts[False] >= 1000, verdicts


def test_face_count_is_eulers_on_planar_diagrams():
    for d in _kernel_corpus():
        for e in _kernel_family(d):
            assert e.face_count() == len(e.faces())
            if e.crossings:
                assert (e.face_count()
                        == len(e.crossings) + 2 * e.shadow_pieces())
                assert e.is_connected() == (e.shadow_pieces() == 1
                                            and e.free_loops == 0)
    # codes that fix no planar embedding are still diagrams
    assert parse_pd("X[1,2,1,2]").face_count() == 1
    assert parse_pd("X[1,3,2,4] X[2,4,1,3]").face_count() == 2


def test_face_incidence_matches_faces():
    for d in _kernel_corpus():
        for e in _kernel_family(d):
            faces = e.faces()
            face_of = {port: fi for fi, face in enumerate(faces)
                       for port in face}
            count, corners, colors = e.face_incidence()
            assert count == len(faces) == len(colors)
            assert corners == [tuple(face_of[(c, (k + 1) % 4)]
                                     for k in range(4))
                               for c in range(len(e.crossings))]
            # the two faces beside each arc differ in color, and the
            # face at the least port is colored 0
            assert set(colors) <= {0, 1}
            assert all(colors[face_of[(p >> 2, p & 3)]]
                       != colors[face_of[(q >> 2, q & 3)]]
                       for p, q in enumerate(e._mate))
            assert not e.crossings or colors[0] == 0


def test_spliced_over_only_component_is_renumbered_by_canonical():
    # the smoothing orients the over-only circle 1-2-3-4 from its lowest
    # fragment; canonical() reorients it from the later occurrence of
    # label 1, so the two numberings differ
    d = parse_pd("X[9,5,10,1] X[6,7,2,6] X[10,5,9,4] X[3,4,7,8] X[2,1,3,8]")
    s = d.smooth(1, 0)
    assert s.render() == "X[5,1,6,2] X[6,3,5,2] X[7,4,8,1] X[8,4,7,3]"
    c = s.canonical()
    assert c.render() == "X[5,1,6,4] X[6,3,5,4] X[7,2,8,1] X[8,2,7,3]"
    assert c.canonical() == c


def _fields(d) -> dict:
    """Everything a Diagram holds or works out, but the flag that only
    diagrams numbered by a splice carry."""
    return {"crossings": d.crossings, "free_loops": d.free_loops,
            "flat": d._flat, "mate": d._mate, "fin": d._fin,
            "starts": d._starts, "signs": d._signs,
            "strand_count": d.strand_count,
            "component_count": d.component_count,
            "over_only": d._over_only,
            "component_map": d.component_map,
            "connected": d.is_connected()}


def _assembled(d):
    """The diagrams that splices of d number: its smoothings, each step
    of its simplification and its canonical form."""
    for c in range(len(d.crossings)):
        for r in (0, 1):
            yield d.smooth(c, r)
    step = d
    while step.crossings:
        nxt = step.simplify(1)
        if nxt is step:
            break
        yield nxt
        step = nxt
    yield d.canonical()


def test_assembled_diagrams_equal_their_parse():
    over = loops = 0
    for d in _kernel_corpus():
        for e in _assembled(d):
            fresh = Diagram(e.crossings, e.free_loops)
            assert _fields(e) == _fields(fresh)
            over += e._over_only
            loops += bool(e.crossings and e.free_loops)
    assert over and loops


def test_spliced_over_only_component_equals_its_parse():
    # the smoothing orients its over-only circle as __init__ does
    d = parse_pd("X[9,5,10,1] X[6,7,2,6] X[10,5,9,4] X[3,4,7,8] X[2,1,3,8]")
    s = d.smooth(1, 0)
    assert s._over_only and s.canonical() is not s
    assert _fields(s) == _fields(Diagram(s.crossings, s.free_loops))
    for e in _assembled(s):
        assert _fields(e) == _fields(Diagram(e.crossings, e.free_loops))

import hashlib
import itertools
import random
from collections import Counter

import pytest

from conftest import braid_closure, grid_diagram
from oracles import arc_head, component_map
from qalt import corpus
from qalt.bracket import kauffman_bracket
from qalt.diagram import (
    Diagram,
    DisconnectedDiagram,
    EmptyDiagram,
    InvalidCrossing,
    InvalidStrandLabels,
    NoEmbedding,
    PDSyntaxError,
    parse_pd,
)
from qalt.tait import checkerboard


def test_parse_trefoil():
    d = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
    assert len(d.crossings) == 3
    assert d.component_count == 1
    assert len({x for t in d.crossings for x in t}) == 6
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


# the trefoil X[1,4,2,5] X[3,6,4,1] X[5,2,6,3] in Arabic-Indic and in
# fullwidth digits
NON_ASCII_TREFOILS = [
    "X[\u0661,\u0664,\u0662,\u0665] X[\u0663,\u0666,\u0664,\u0661] "
    "X[\u0665,\u0662,\u0666,\u0663]",
    "X[\uff11,\uff14,\uff12,\uff15] X[\uff13,\uff16,\uff14,\uff11] "
    "X[\uff15,\uff12,\uff16,\uff13]",
]


@pytest.mark.parametrize("text", NON_ASCII_TREFOILS,
                         ids=["arabic-indic", "fullwidth"])
def test_parse_takes_ascii_digits_only(text):
    # int() reads any decimal digit; a label is written in 0-9, as in
    # edge lists and PD JSON
    with pytest.raises(PDSyntaxError, match="^unexpected text "):
        parse_pd(text)


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
        cmap = component_map(d)
        for c, t in enumerate(d.crossings):
            deltas = sorted(
                d.smooth(c, r).component_count - d.component_count
                for r in (0, 1))
            if cmap[t[0]] == cmap[t[1]]:
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
    cmap = component_map(d)
    labels = sorted(cmap)
    return repr((d.crossings, d.free_loops,
                 tuple(d.sign(c) for c in range(len(d.crossings))),
                 sorted(cmap.items()),
                 tuple(arc_head(d, lab) for lab in labels),
                 d.faces(), d.is_connected()))


KERNEL_DIGEST = (
    "5b2318b808672bd19d3e220747e45a691b6a369e667fdd3fe42a14fce126f744")


@pytest.mark.hashseed
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
            if e.crossings:
                assert (len(e.faces())
                        == len(e.crossings) + 2 * e.shadow_pieces())
                assert e.is_connected() == (e.shadow_pieces() == 1
                                            and e.free_loops == 0)
    # codes that fix no planar embedding are still diagrams
    assert len(parse_pd("X[1,2,1,2]").faces()) == 1
    assert len(parse_pd("X[1,3,2,4] X[2,4,1,3]").faces()) == 2


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


def _has_over_only_component(d) -> bool:
    """Whether some component of d meets every crossing it passes over:
    every port of its walk, from each start along the opposite slots,
    is odd."""
    for start in d._starts:
        cur = start
        while cur & 1:
            cur = d._mate[cur ^ 2]
            if cur == start:
                return True
    return False


def _fields(d) -> dict:
    """Everything a Diagram holds or works out, but the flag that only
    diagrams numbered by a splice carry."""
    return {"crossings": d.crossings, "free_loops": d.free_loops,
            "flat": d._flat, "mate": d._mate, "fin": d._fin,
            "starts": d._starts,
            "component_count": d.component_count,
            "over_only": _has_over_only_component(d),
            "component_map": component_map(d),
            "connected": d.is_connected()}


def _assembled(d):
    """The diagrams that splices of d number: its smoothings, plain and
    untwisted, each step of its simplification and its canonical form."""
    for c in range(len(d.crossings)):
        for r in (0, 1):
            yield d.smooth(c, r)
            yield d.smooth(c, r, untwist=True)
    step = d
    while step.crossings:
        nxt = step.simplify(1)
        if nxt is step:
            break
        yield nxt
        step = nxt
    yield d.canonical()


@pytest.mark.hashseed
def test_assembled_diagrams_equal_their_parse():
    # on the kernel corpus and on grid diagrams, whose splices meet
    # over-only components and free loops far more often
    for inputs in (_kernel_corpus(), _grid_inputs()):
        over = loops = 0
        for d in inputs:
            for e in _assembled(d):
                fresh = Diagram(e.crossings, e.free_loops)
                assert _fields(e) == _fields(fresh)
                over_only = _has_over_only_component(e)
                # born canonical, unless __init__ oriented an over-only
                # component by its labels
                if e.crossings:
                    assert (e.canonical() is e) == (not over_only), e
                over += over_only
                loops += bool(e.crossings and e.free_loops)
        assert over and loops


@pytest.mark.hashseed
def test_spliced_over_only_component_equals_its_parse():
    # the smoothing orients its over-only circle as __init__ does
    d = parse_pd("X[9,5,10,1] X[6,7,2,6] X[10,5,9,4] X[3,4,7,8] X[2,1,3,8]")
    s = d.smooth(1, 0)
    assert _has_over_only_component(s) and s.canonical() is not s
    assert _fields(s) == _fields(Diagram(s.crossings, s.free_loops))
    for e in _assembled(s):
        assert _fields(e) == _fields(Diagram(e.crossings, e.free_loops))


def _untwisting_inputs():
    """The kernel corpus, simplified and not; the bundled corpus; T(2,n)
    and its mirror for n <= 12; and seeded braid closures of 6-14
    crossings, alternating, random and near-alternating (one or two
    letters of an alternating word switched)."""
    out = []
    for d in _kernel_corpus():
        out += [d, d.simplify()]
    out += [e.diagram for e in corpus.entries()]
    for n in range(2, 13):
        out += [corpus.torus(n), corpus.torus(n).mirror()]
    rng = random.Random(20261019)
    for family in ("alternating", "random", "near"):
        for _ in range(30):
            strands = rng.randint(2, 5)
            word = [rng.randint(1, strands - 1)
                    for _ in range(rng.randint(6, 14))]
            if family == "random":
                word = [g * rng.choice((1, -1)) for g in word]
            else:
                word = [g if g % 2 else -g for g in word]
            if family == "near":
                for k in rng.sample(range(len(word)), rng.randint(1, 2)):
                    word[k] = -word[k]
            out.append(braid_closure(word, strands))
    return out


def _grid_inputs():
    """Seeded grid diagrams of sizes 4-8 with at least two crossings:
    not braid closures (see conftest)."""
    rng = random.Random(20261019)
    out = []
    while len(out) < 200:
        d = grid_diagram(rng, rng.randint(4, 8))
        if len(d.crossings) > 1:
            out.append(d)
    return out


def _has_curl(d) -> bool:
    return any(p == q for p, q in enumerate(d._face_step()))


@pytest.mark.hashseed
def test_smooth_untwisted_matches_smooth_then_simplify():
    # the untwisted smoothing, simplified, against the plain smoothing,
    # simplified: the same crossing count, free loops, component count
    # and Kauffman bracket, at every crossing and both smoothings. On a
    # diagram without curls the untwisted smoothing has none left, and
    # on a twist region it removes crossings
    for inputs, least in ((_untwisting_inputs(), (3000, 1000)),
                          (_grid_inputs(), (1500, 500))):
        cases = untwisted = 0
        for d in inputs:
            curled = _has_curl(d)
            for c in range(len(d.crossings)):
                for r in (0, 1):
                    u = d.smooth(c, r, untwist=True)
                    s = d.smooth(c, r)
                    assert curled or not _has_curl(u), (d, c, r)
                    untwisted += len(u.crossings) < len(s.crossings)
                    u, s = u.simplify(), s.simplify()
                    assert ((len(u.crossings), u.free_loops,
                             u.component_count)
                            == (len(s.crossings), s.free_loops,
                                s.component_count)), (d, c, r)
                    assert kauffman_bracket(u) == kauffman_bracket(s), (
                        d, c, r)
                    cases += 1
        assert cases > least[0] and untwisted > least[1], (cases, untwisted)


def test_smooth_untwisted_undoes_a_twist_region():
    # the vertical smoothing of T(2,n) leaves n - 1 curls in a chain,
    # all undone in the one splice; from n = 3 on, the other smoothing
    # makes none
    for n in range(2, 9):
        d = corpus.torus(n)
        assert d.smooth(0, 0, untwist=True) == Diagram((), 1)
        if n > 2:
            assert d.smooth(0, 1, untwist=True) == d.smooth(0, 1)
    with pytest.raises(InvalidCrossing):
        corpus.trefoil().smooth(0, 2, untwist=True)
    with pytest.raises(InvalidCrossing):
        corpus.trefoil().smooth(3, 0, untwist=True)


@pytest.mark.hashseed
def test_untwisted_smoothings_of_reduced_alternating_diagrams_are_reduced():
    # the rule behind the _fixpoint mark (module notes): an alternating
    # diagram has no removable bigon, and the untwisting splice removes
    # every curl the smoothing makes, so the untwisted smoothing of a
    # reduced alternating diagram is reduced, and smooth marks it so
    # without a scan. Checked two levels down from each input, simplified
    alternating = other = 0
    todo = [d.simplify() for d in _untwisting_inputs()]
    for depth in (0, 1):
        below = []
        for s in todo:
            assert s._fixpoint and s._move() is None, s
            for k in (0, 1, None):
                assert s.simplify(k) is s
            assert s.canonical()._fixpoint
            for c in range(len(s.crossings)):
                for r in (0, 1):
                    u = s.smooth(c, r, untwist=True)
                    assert not s.smooth(c, r)._fixpoint
                    if not s.is_alternating():
                        assert not u._fixpoint, (s, c, r)
                        other += 1
                        continue
                    assert u._fixpoint and u._move() is None, (s, c, r)
                    assert u.is_alternating()
                    alternating += 1
                    if depth == 0 and u.crossings:
                        below.append(u)
        todo = below
    assert alternating > 15000 and other > 300, (alternating, other)


# golden digest of the untwisted smoothing: the splice, the renumbering,
# the free loops of its leaves and the facts a child takes from its
# parent (the _fixpoint mark and the alternation) all feed it

UNTWIST_DIGEST = (
    "f895f7955c307a71c40a9c58c4309c42a9aabcb4f3654535f94f00dcd0c5b70d")


@pytest.mark.hashseed
def test_untwist_golden_digest():
    h = hashlib.sha256()
    for d in _untwisting_inputs():
        for c in range(len(d.crossings)):
            for r in (0, 1):
                u = d.smooth(c, r, untwist=True)
                h.update(repr((_kernel_facts(u), u._fixpoint,
                               u.is_alternating())).encode())
    assert h.hexdigest() == UNTWIST_DIGEST


def test_untwisted_smoothings_inherit_alternation():
    # the untwisted smoothing of an alternating diagram is alternating
    # (module notes), and smooth sets it so without working it out.
    # Summing with a curl gives parents that are not reduced, alternating
    # or not, so unmarked parents are covered too
    inputs = _untwisting_inputs()
    inputs += [d.connected_sum(CURLS[k % 2])
               for k, d in enumerate(inputs) if d.is_connected()]
    inputs += _grid_inputs()
    verdicts = Counter()
    for d in inputs:
        alternating = d.is_alternating()
        for c in range(len(d.crossings)):
            for r in (0, 1):
                u = d.smooth(c, r, untwist=True)
                assert u._alternating == (alternating or None), (d, c, r)
                want = _alternates_along_components(u)
                assert u.is_alternating() == want, (d, c, r)
                verdicts[alternating, want] += 1
    assert min(verdicts.values()) > 1000 and len(verdicts) == 3, verdicts


def test_smoothings_of_planar_diagrams_count_their_pieces_by_faces():
    # check_planar marks a diagram planar and every splice keeps the mark;
    # smooth then takes the piece count of a child of several components
    # from the two faces its smoothing merges. It must equal a fresh count
    preset = 0
    for d in _untwisting_inputs() + _grid_inputs():
        d.check_planar()
        d.shadow_pieces()
        for c in range(len(d.crossings)):
            for r in (0, 1):
                for untwist in (False, True):
                    u = d.smooth(c, r, untwist=untwist)
                    fresh = Diagram(u.crossings, u.free_loops)
                    preset += u._pieces is not None
                    assert u.shadow_pieces() == fresh.shadow_pieces(), (
                        d, c, r, untwist)
                    assert u._planar
    assert preset > 3000, preset
    # the rule needs a planar diagram: this code has none, and its
    # smoothing at crossing 0, of three components, merges one face with
    # itself yet stays in one piece, so nothing is preset
    d = parse_pd("X[3,6,4,5] X[4,1,2,1] X[2,6,5,3]")
    with pytest.raises(NoEmbedding):
        d.check_planar()
    u = d.smooth(0, 0)
    assert u.component_count == 3 and u._pieces is None
    assert u.shadow_pieces() == 1


def test_shadow_pieces_of_disjoint_unions():
    # k copies side by side, each with its labels shifted past the last,
    # make a shadow of k pieces, whatever the first piece's strands
    hopf = ((1, 4, 2, 3), (3, 2, 4, 1))
    second = [tuple(x + 4 for x in t) for t in hopf]
    assert Diagram(hopf + tuple(second)).shadow_pieces() == 2
    for e in corpus.entries():
        if not e.diagram.crossings:
            continue
        for k in range(1, 5):
            shift = max(map(max, e.diagram.crossings))
            crossings = [tuple(x + j * shift for x in t)
                         for j in range(k) for t in e.diagram.crossings]
            d = Diagram(crossings)
            assert d.shadow_pieces() == k, (e.name, k)
            assert d.is_connected() == (k == 1)


# a code whose one face falls short of the 5 that its 3 crossings in
# one piece need; its smoothing at crossing 0 is X[2,1,3,1] X[3,4,2,4]
NO_EMBEDDING = "X[2,1,2,4] X[3,1,5,4] X[5,6,3,6]"


def test_check_planar_counts_the_faces_itself():
    # no caller's count can mark a code planar, so no smoothing of it
    # reads its pieces off faces that no embedding has
    d = parse_pd(NO_EMBEDDING)
    with pytest.raises(TypeError):
        d.check_planar(5)
    for _ in range(2):
        with pytest.raises(NoEmbedding, match="face count 1 is not 5"):
            d.check_planar()
    u = d.smooth(0, 0)
    assert u.render() == "X[2,1,3,1] X[3,4,2,4]"
    assert u.shadow_pieces() == 1 and u.is_connected()


def test_face_incidence_refuses_a_code_with_no_embedding():
    # face_incidence walks the faces through the check_planar rule, so a
    # code with no embedding gets no one-face coloring
    d = parse_pd(NO_EMBEDDING)
    with pytest.raises(NoEmbedding, match="face count 1 is not 5, "):
        d.face_incidence()
    assert not d._planar


def test_checkerboard_walks_the_faces_once(monkeypatch):
    # the walk that colors the faces is the one that checks their count,
    # and it marks the diagram, so a check_planar after it walks none
    counted = []
    port_faces = Diagram._port_faces
    monkeypatch.setattr(Diagram, "_port_faces",
                        lambda d: counted.append(d) or port_faces(d))
    d = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
    checkerboard(d)
    assert counted == [d]
    d.check_planar()
    assert counted == [d]


def test_check_planar_counts_no_faces_on_a_marked_diagram(monkeypatch):
    # a diagram checked before, or spliced from one, is not counted again
    counted = []
    port_faces = Diagram._port_faces
    monkeypatch.setattr(Diagram, "_port_faces",
                        lambda d: counted.append(d) or port_faces(d))
    inputs = [Diagram(d.crossings, d.free_loops)
              for d in _untwisting_inputs()[::4]]
    for d in inputs:
        d.check_planar()
    assert counted == inputs
    for d in inputs:
        d.check_planar()
        d.simplify().canonical().check_planar()
        for c in range(len(d.crossings)):
            for r in (0, 1):
                d.smooth(c, r).check_planar()
                d.smooth(c, r, untwist=True).check_planar()
    assert counted == inputs

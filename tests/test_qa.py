import collections
import functools
import hashlib
import json
import random
import sys

import pytest

import qalt.qa
import qalt.tait
from conftest import braid_closure, grid_diagram, pretzel, pretzel_cases
from oracles import (contract, delete, is_isthmus, is_loop, rule_ids,
                     signature)
from qalt import cli, corpus
from qalt.bracket import determinant, jones
from qalt.diagram import Diagram, DisconnectedDiagram, NoEmbedding, parse_pd
from qalt.laurent import HalfLaurent, ZeroPolynomial, analyze, parse
from qalt.qa import (INCONCLUSIVE, NOTQA, Budget, Certificate, QAVerdict,
                     Unknown, certify, kanenobu_jones, kanenobu_obstruction,
                     obstruct, replay_certificate, torus_2n_jones)
from qalt.tait import checkerboard, gamma


def hl(*pairs):
    return HalfLaurent({2 * e: c for e, c in pairs})


# obstruction battery


def test_obstruct_breadth_rule():
    v = hl((0, 1), (1, -1), (2, 1), (3, -1), (4, 1), (5, -1), (6, 1))
    out = obstruct(v, 5)
    assert out.status == NOTQA
    assert "breadth" in rule_ids(out)


def test_obstruct_gap_rule_needs_flags():
    v = hl((0, 1), (2, 1))  # gap at exponent 1
    assert obstruct(v, 5, prime=True).status == NOTQA
    assert "gap" in rule_ids(obstruct(v, 5, prime=True))
    # without the primality assertion the gap alone cannot fire
    res = obstruct(v, 5, prime=False)
    assert "gap" not in rule_ids(res)


def test_torus_2n_jones_solves_the_skein_recursion():
    # V_n = t^2 V_(n-2) + (t^(3/2) - t^(1/2)) V_(n-1), positive crossings
    prev, cur = HalfLaurent({1: -1, -1: -1}), HalfLaurent.one()
    step = HalfLaurent({3: 1, 1: -1})
    assert torus_2n_jones(1) == cur
    for n in range(2, 16):
        prev, cur = cur, prev.shift2(4) + step * cur
        assert torus_2n_jones(n) == cur, n
    # the bundled torus diagrams have negative crossings
    for n in range(2, 9):
        assert jones(corpus.torus(n).mirror()) == torus_2n_jones(n)


def test_obstruct_gap_rule_spares_torus_2n_links():
    for n in range(2, 9):
        d = corpus.torus(n)
        for link in (d, d.mirror()):
            out = obstruct(jones(link), n, prime=True)
            assert out.status == INCONCLUSIVE, (n, out.reasons)
    # reversing one component of T(2,4) shifts V by a power of t
    v = jones(corpus.torus(4)).shift2(-12)
    assert obstruct(v, 4, prime=True).status == INCONCLUSIVE
    # a torus polynomial with the wrong determinant is not spared
    assert "gap" in rule_ids(obstruct(jones(corpus.torus(5)), 7, prime=True))


def test_obstruct_gap_rule_on_a_large_det_builds_no_torus_v(monkeypatch):
    # V(T(2,n)) has n terms, so a V with fewer is decided without
    # building V(T(2,det)), whose det terms would take seconds to write
    built = []
    real = qalt.qa.torus_2n_jones

    def guarded(n):
        if n > len(v.items2()):
            raise AssertionError("V(T(2,%d)) was built" % n)
        built.append(n)
        return real(n)

    monkeypatch.setattr(qalt.qa, "torus_2n_jones", guarded)
    v = parse("1 + t^2")
    out = obstruct(v, 4_000_000, prime=True)
    assert out.status == NOTQA
    reason = {r[0]: r[2] for r in out.reasons}["gap"]
    assert reason["torus_2n"] == {"n": 4_000_000}
    assert built == []
    # a torus link's V still meets the rule, and is spared
    for n in range(2, 9):
        v = jones(corpus.torus(n))
        assert obstruct(v, n, prime=True).status == INCONCLUSIVE
    assert built == list(range(2, 9))


def test_obstruct_multi_gap_rule():
    v = hl((0, 1), (2, 1), (5, 1))  # gaps at 1 and 3..4
    out = obstruct(v, 9, prime=False)
    assert out.status == NOTQA
    assert "multi-gap" in rule_ids(out)


def test_obstruct_multi_gap_rule_on_a_wide_v_builds_no_power(monkeypatch):
    # a Hopf sum's V has k + 1 terms, so a 3-term V of breadth 8000 is
    # decided without raising HOPF_JONES to the 4000th power
    def no_power(self, n):
        raise AssertionError("HOPF_JONES ** %d was built" % n)

    monkeypatch.setattr(HalfLaurent, "__pow__", no_power)
    out = obstruct(parse("1 + t^2 + t^8000"), 3)
    assert out.status == NOTQA
    reason = {r[0]: r[2] for r in out.reasons}["multi-gap"]
    assert reason["hopf_factors_tried"] == 4000
    assert reason["gaps"] == ((2, 1), (6, 7997))


def test_obstruct_hopf_sum_is_spared_by_multi_gap_rule():
    v = jones(corpus.hopf_hopf())
    out = obstruct(v, 4, prime=False)
    assert out.status == INCONCLUSIVE


def test_obstruct_small_breadth_rule():
    v = hl((0, 1), (1, -1), (2, 1))
    out = obstruct(v, 7)
    assert out.status == NOTQA
    assert "small-breadth" in rule_ids(out)


def test_obstruct_alternation_rule():
    v = hl((0, 1), (1, 1))
    out = obstruct(v, 5)
    assert "not-alternating" in rule_ids(out)


def test_obstruct_figure_eight_inconclusive():
    out = obstruct(jones(corpus.figure_eight()), 5, prime=True)
    assert out.status == INCONCLUSIVE
    assert out.reasons == ()
    assert out.assumptions == {"prime": True}


def test_obstruct_guards():
    with pytest.raises(ZeroPolynomial):
        obstruct(HalfLaurent.zero(), 3)
    with pytest.raises(ValueError, match="non-negative"):
        obstruct(HalfLaurent.one(), -1)
    # a verdict rests on exact arithmetic: a float or a bool is refused,
    # not read as the number it is close to or stands for
    v = jones(corpus.hopf())
    for det in (2.5, 2.0, True, False):
        for prime in (False, True):
            with pytest.raises(ValueError,
                               match="det must be a non-negative integer"):
                obstruct(v, det, prime=prime)
    for n in (True, 2.0):
        with pytest.raises(ValueError, match="need n >= 1"):
            torus_2n_jones(n)


def test_obstruct_det_rule():
    # det 0: the split union of two Hopf links
    split = parse_pd("X[1,4,2,3] X[3,2,4,1] X[5,8,6,7] X[7,6,8,5]")
    v = jones(split)
    assert v.abs_at_minus_one() == 0
    for prime in (False, True):
        out = obstruct(v, 0, prime=prime)
        assert out.status == NOTQA
        assert rule_ids(out)[0] == "det"
        assert out.reasons[0][2] == {"det": 0}
    # det 1 is the unknot's alone
    assert obstruct(HalfLaurent.one(), 1).status == INCONCLUSIVE
    assert obstruct(HalfLaurent.one(), 1, prime=True).status == INCONCLUSIVE
    v = hl((0, 1), (1, -1))  # breadth 1: no other rule fires at det 1
    assert rule_ids(obstruct(v, 1)) == ("det",)
    assert obstruct(v, 2).status == INCONCLUSIVE


def test_obstruct_carries_its_gap_report():
    # the report the rules read is analyze's at step 1 in t, whatever
    # the verdict, on the corpus and on closures of both verdicts
    rng = random.Random(20261020)
    diagrams = [e.diagram for e in corpus.entries()] + [
        braid_closure([rng.choice((1, -1, 2, -2, 3, -3))
                       for _ in range(rng.randint(8, 14))], 4)
        for _ in range(40)]
    statuses = set()
    for d in diagrams:
        v = jones(d)
        for prime in (False, True):
            out = obstruct(v, determinant(d), prime=prime)
            assert out.report == analyze(v, step2=2), d
            statuses.add(out.status)
    assert statuses == {NOTQA, INCONCLUSIVE}


def test_obstruct_collects_multiple_reasons():
    v = hl((0, 1), (1, 1), (3, 1))
    out = obstruct(v, 1, prime=True)
    assert out.status == NOTQA
    assert len(out.reasons) >= 2


# certification


def test_certify_unknot_leaf():
    cert = certify(corpus.unknot())
    assert cert.tree == {"version": 3, "pd": "", "nodes": []}
    assert replay_certificate(cert)


def test_certify_curl_is_leaf():
    cert = certify(corpus.curl())
    assert cert.tree == {"version": 3, "pd": corpus.curl().render(),
                         "nodes": []}


def test_certify_hopf_shape():
    cert = certify(corpus.hopf())
    [node] = cert.tree["nodes"]
    assert node[1:] == [2, 0, "leaf", "leaf"]
    assert replay_certificate(cert)


def test_certify_trefoil_children():
    cert = certify(corpus.trefoil())
    nodes = cert.tree["nodes"]
    assert nodes[0][1] == 3
    assert sorted(_det(nodes, k) for k in nodes[0][3:]) == [1, 2]
    assert replay_certificate(cert)


def test_certify_whole_corpus_and_replay():
    for e in corpus.entries():
        cert = certify(e.diagram)
        assert isinstance(cert, Certificate), e.name
        assert _root_det(cert.tree) == e.det
        assert replay_certificate(cert), e.name


def test_certificate_json_round_trip():
    cert = certify(corpus.figure_eight())
    back = Certificate.from_json(cert.to_json())
    assert back.tree == cert.tree
    assert replay_certificate(back)


def test_certify_rejects_split():
    with pytest.raises(DisconnectedDiagram, match="connected nonempty"):
        certify(Diagram((), 2))
    with pytest.raises(DisconnectedDiagram):
        certify(parse_pd("X[1,4,2,3] X[3,2,4,1] X[5,8,6,7] X[7,6,8,5]"))


def test_certify_descends_only_into_connected_smoothings(monkeypatch):
    # a crossing with a split smoothing is skipped before the search
    # descends into either smoothing, by the det >= 1 test of the
    # Goeritz rule and by the connectivity test of the alternating rule,
    # so no node is spent on it. Each of these alternating closures
    # has such a crossing, one split by its 0-smoothing and the other by
    # its 1-smoothing, ahead of the one the search takes
    descents = []
    simplify = Diagram.simplify

    def spy(d, *args):
        descents.append(d.is_connected())
        return simplify(d, *args)

    monkeypatch.setattr(Diagram, "simplify", spy)
    for word in ([-4, -2, -2, -2, 1, -4, 3, -2],
                 [-4, 3, 1, -4, -4, 3, -2, 3, 1, 1, -2]):
        d = braid_closure(word, 5)
        assert d.is_alternating()
        assert isinstance(certify(d), Certificate)
    assert descents and all(descents)


def test_non_planar_alternating_code_is_refused():
    # a code that fixes no planar embedding has no checkerboard graph,
    # and the alternating rule, which stands in for it, does not hold
    # there: its two smoothings are curls, yet its bracket determinant
    # is not 2. certify and replay check the root, as checkerboard does
    d = parse_pd("X[2,3,4,1] X[1,2,3,4]")
    assert d.is_alternating() and d.is_connected()
    assert len(d.faces()) != len(d.crossings) + 2
    with pytest.raises(NoEmbedding):
        certify(d)
    s = d.simplify().canonical()
    tree = {"version": 3, "pd": d.render(),
            "nodes": [[s.render(), 2, 0, "leaf", "leaf"]]}
    with pytest.raises(NoEmbedding):
        replay_certificate(tree)


@pytest.mark.parametrize("pd", ["X[2,3,4,1] X[1,2,3,4]",
                                "X[1,3,2,4] X[2,4,1,3]", "X[1,2,1,2]",
                                "X[1,2,3,4] X[3,2,4,1]"])
def test_non_planar_code_gives_one_message_everywhere(capsys, pd):
    # Diagram.check_planar is the one rule: the checkerboard, the search
    # and replay (each at its root, before any reduction) and the CLI
    # all refuse with its message. The last code reduces to a
    # crossingless circle, which a search of its reduction would take
    # for a leaf
    d = parse_pd(pd)
    assert d.is_connected()
    message = ("face count %d is not %d, crossings + 2 per piece of the "
               "shadow: the PD code is not planar"
               % (len(d.faces()), len(d.crossings) + 2))
    leaf = {"version": 3, "pd": pd, "nodes": []}
    for call, arg in ((checkerboard, d), (certify, d),
                      (replay_certificate, leaf)):
        with pytest.raises(NoEmbedding) as exc:
            call(arg)
        assert str(exc.value) == message
    assert cli.main(["jones", "--pd", pd]) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)


def test_certify_budget_exhaustion_is_unknown():
    out = certify(corpus.torus(7), Budget(max_nodes=3))
    assert isinstance(out, Unknown)
    assert out.reason == "budget"


@pytest.mark.parametrize("field, value", [
    ("max_depth", None), ("max_depth", -1), ("max_depth", True),
    ("max_depth", 2.0), ("max_nodes", "5"), ("max_nodes", True),
    ("max_nodes", -1), ("max_nodes", None), ("simplify_passes", 1.5),
    ("simplify_passes", -1), ("simplify_passes", False),
    ("simplify_passes", "3")])
def test_budget_refuses_a_field_that_is_no_count(field, value):
    # each field is checked when the budget is made, not deep in a
    # search; a bool is no count, though it is an int
    with pytest.raises(ValueError) as err:
        Budget(**{field: value})
    assert str(err.value) == ("%s must be a non-negative integer: %r"
                              % (field, value))


def _det(nodes, k):
    """The det of child k: node k's, or 1 at a leaf."""
    return 1 if k == "leaf" else nodes[k][1]


def _root_det(tree):
    return _det(tree["nodes"], 0) if tree["nodes"] else 1


def test_replay_rejects_tampering():
    cert = certify(corpus.trefoil())
    bad = json.loads(cert.to_json())
    bad["nodes"][0][1] = 4
    with pytest.raises(ValueError):
        replay_certificate(Certificate(bad))
    # the Hopf link's node where the trefoil has a leaf
    bad2 = json.loads(cert.to_json())
    bad2["nodes"].append(certify(corpus.hopf()).tree["nodes"][0])
    bad2["nodes"][0][3] = 2
    with pytest.raises(ValueError):
        replay_certificate(Certificate(bad2))


def test_replay_refuses_a_root_pd_swapped_for_another_link():
    # the root is the tree's "pd": put the figure-eight's text on the
    # trefoil's tree, and no check below the root may pass it
    tree = certify(corpus.trefoil()).tree
    swapped = dict(tree, pd=corpus.figure_eight().render())
    for cert in (Certificate.from_json(json.dumps(swapped)), swapped):
        with pytest.raises(ValueError):
            replay_certificate(cert)
    # the bare tree replays, and so does root text that differs but
    # parses to the same diagram
    assert replay_certificate(tree)
    spaced = dict(tree, pd=tree["pd"].replace(",", ", "))
    assert replay_certificate(Certificate.from_json(json.dumps(spaced)))


TREFOIL_CERTIFICATE = """{
  "version": 3,
  "pd": "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]",
  "nodes": [
    [
      "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]",
      3,
      0,
      "leaf",
      1
    ],
    [
      "X[1,3,2,4] X[4,2,3,1]",
      2,
      0,
      "leaf",
      "leaf"
    ]
  ]
}"""


@pytest.mark.hashseed
def test_trefoil_certificate_is_pinned(capsys):
    # a child's reduced_pd depends on how the untwisted smoothing
    # orients its fused arcs (each takes the direction of its lowest
    # fragment); qalt certify prints the tree indented, to_json writes
    # it compact
    assert cli.main(["certify", "--pd", corpus.trefoil().render()]) == 0
    assert capsys.readouterr().out == TREFOIL_CERTIFICATE + "\n"
    text = certify(corpus.trefoil()).to_json()
    assert json.loads(text) == json.loads(TREFOIL_CERTIFICATE)


# sha256 over the certificates, or Unknown reasons, of seeded
# near-alternating braid closures under a 300-node budget: 36 certified,
# 23 exhausted, 1 over budget, each certificate hashed as its indented
# JSON. Closures 5 and 17 (from 0) are exhausted within the budget only
# because the search memoises failed nodes. The search must not depend
# on set or dict order, so CI runs this under two PYTHONHASHSEED values.
SEEDED_CERTIFICATES_DIGEST = (
    "744447760f301b6dbe0cfb15926667577f4c297ca8ca58cd851a2e735560ed95")


def _near_alternating_closures(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.randint(3, 4)
        word = [rng.randint(1, strands - 1)
                for _ in range(rng.randint(7, 12))]
        word += list(range(1, strands))
        # alternating signs, with about one letter in four flipped
        word = [g * (1 if g % 2 else -1) * (-1 if rng.random() < 0.25 else 1)
                for g in word]
        out.append(braid_closure(word, strands))
    return out


@pytest.mark.hashseed
def test_certificates_of_seeded_closures_are_pinned():
    h = hashlib.sha256()
    for d in _near_alternating_closures(60, seed=20261018):
        out = certify(d, Budget(max_nodes=300))
        if isinstance(out, Certificate):
            assert json.loads(out.to_json()) == out.tree
            text = json.dumps(out.tree, indent=2)
        else:
            text = out.reason
        h.update(text.encode() + b"\n")
    assert h.hexdigest() == SEEDED_CERTIFICATES_DIGEST


def test_certify_expands_each_reduced_diagram_once(monkeypatch):
    # the search memoises failed nodes as well as certified ones, so no
    # reduced diagram is smoothed twice at one crossing in one search,
    # though the searches below meet failed diagrams again and again
    smoothed = []
    smooth = Diagram.smooth

    def spy(d, c, r, **kwargs):
        smoothed.append((d.render(), c, r))
        return smooth(d, c, r, **kwargs)

    monkeypatch.setattr(Diagram, "smooth", spy)
    outcomes = collections.Counter()
    for d in _near_alternating_closures(20, seed=20261018):
        del smoothed[:]
        out = certify(d, Budget(max_nodes=300))
        outcomes[getattr(out, "reason", "certified")] += 1
        assert len(smoothed) == len(set(smoothed)), d
    assert outcomes["exhausted"] > 5 and outcomes["certified"] > 5, outcomes


def test_certify_solves_one_minor_per_black_graph_and_pair(monkeypatch):
    # a non-alternating node solves the Goeritz minor of its black graph
    # once, and each crossing's pair of smoothing determinants costs one
    # minor more, that of the deletion
    solves = []
    bareiss = qalt.tait.bareiss_det

    def counting_bareiss(rows):
        solves.append(rows)
        return bareiss(rows)

    graphs = _spy(monkeypatch, qalt.qa, "checkerboard")
    pairs = []
    dets = qalt.qa.smoothing_dets

    def counting_dets(g):
        det, it = dets(g)

        def read():
            for pair in it:
                pairs.append(pair)
                yield pair

        return det, read()

    monkeypatch.setattr(qalt.tait, "bareiss_det", counting_bareiss)
    monkeypatch.setattr(qalt.qa, "smoothing_dets", counting_dets)
    read = 0
    for d in _near_alternating_closures(20, seed=20261018):
        del solves[:], graphs[:], pairs[:]
        certify(d, Budget(max_nodes=300))
        assert len(solves) == len(graphs) + len(pairs), d
        read += len(pairs)
    assert read > 100, read


def _alternating_closures(count, seed):
    # sigma_i positive for odd i and negative for even i, every
    # generator used at least twice
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        strands = rng.choice((3, 4))
        word = [i if i % 2 else -i
                for i in (rng.randint(1, strands - 1)
                          for _ in range(rng.randint(6, 9)))]
        if all(sum(abs(g) == i for g in word) >= 2
               for i in range(1, strands)):
            out.append(braid_closure(word, strands))
    return out


def test_round_trip_scans_for_moves_at_the_root_only(monkeypatch):
    # below a reduced alternating node every derived child is known to be
    # reduced (Diagram's _fixpoint mark), so certify and replay look for
    # Reidemeister moves only in the root diagram each builds: one scan
    # apiece on these closures, which are reduced
    scans = []
    move = Diagram._move

    def spy(d):
        scans.append(d._fixpoint)
        return move(d)

    closures = _alternating_closures(6, seed=5)
    monkeypatch.setattr(Diagram, "_move", spy)
    for d in closures:
        cert = certify(d)
        assert isinstance(cert, Certificate)
        assert len(cert.tree["nodes"]) > 3
        assert replay_certificate(Certificate.from_json(cert.to_json()))
    assert not any(scans)
    assert len(scans) == 2 * len(closures)


def test_certified_closures_satisfy_the_papers_bounds():
    # a certificate proves membership, so no rule of the battery without
    # flags may fire, and breadth(V) <= det must hold. The connected grid
    # diagrams with crossings are not braid closures (see conftest)
    closures = (_alternating_closures(30, seed=11)
                + _near_alternating_closures(120, seed=12))
    rng = random.Random(5)
    grids = [d for d in (grid_diagram(rng, rng.randint(5, 8))
                         for _ in range(150))
             if d.crossings and d.is_connected()]
    certified = certified_grids = 0
    for i, d in enumerate(closures + grids):
        out = certify(d, Budget(max_nodes=300))
        if not isinstance(out, Certificate):
            continue
        if i < len(closures):
            certified += 1
        else:
            certified_grids += 1
        v = jones(d)
        det = _root_det(out.tree)
        assert det == v.abs_at_minus_one()
        verdict = obstruct(v, det)
        assert verdict.status == INCONCLUSIVE, verdict.reasons
        assert analyze(v, step2=2).breadth2 <= 2 * det
        # a QA link is Khovanov-thin (Manolescu-Ozsvath 2008), so the
        # sign of V's coefficient at t^(e2/2) is (-1)^((e2 + sigma)/2)
        sigma = signature(d, checkerboard(d)[0])
        assert all((c > 0) == ((e2 + sigma) // 2 % 2 == 0)
                   for e2, c in v.items2()), d
    assert certified >= 110, certified
    assert certified_grids >= 70, certified_grids


def _two_arc_cut(d) -> bool:
    """Whether two distinct arcs of d border the same two faces, so that
    a closed curve through those faces meets d in two points and has
    crossings on both sides. Within a face of d.faces(), each arc runs
    from the exit slot s - 1 of one entry to the next entry."""
    sides = collections.defaultdict(set)
    for f, face in enumerate(d.faces()):
        for (c, s), entry in zip(face, face[1:] + face[:1]):
            sides[frozenset({(c, (s - 1) % 4), entry})].add(f)
    pairs = collections.Counter(map(frozenset, sides.values()))
    return max(pairs.values()) > 1


def test_two_arc_cut_known_answers():
    for n in range(2, 9):
        assert not _two_arc_cut(corpus.torus(n)), n
    for d in (corpus.trefoil(), corpus.figure_eight(), pretzel(3, 3, 3)):
        assert not _two_arc_cut(d), d
    trefoil = corpus.trefoil()
    for d in (corpus.hopf_hopf(), corpus.hopf_trefoil(),
              trefoil.connected_sum(trefoil)):
        assert _two_arc_cut(d), d


def test_prime_certified_alternating_closures_have_no_gap():
    # the paper's main theorem extends Thistlethwaite's Theorem 1(iv): a
    # prime QA link that is not a (2,n) torus link has no gap in V. A
    # reduced alternating diagram with no two-arc cut is prime (Menasco,
    # 1984), so on those the battery with prime=True, which exempts the
    # (2,n) torus links itself, never fires. On 24 of the composites the
    # gap rule does, so the cut test is what makes prime=True honest
    counts = collections.Counter()
    for d in _alternating_closures(200, seed=11):
        out = certify(d)
        assert isinstance(out, Certificate), d
        if not out.tree["nodes"]:
            continue
        reduced = parse_pd(out.tree["nodes"][0][0])
        assert reduced.is_alternating()
        verdict = obstruct(jones(d), _root_det(out.tree), prime=True)
        if _two_arc_cut(reduced):
            counts["composite", verdict.status] += 1
        else:
            assert verdict.status == INCONCLUSIVE, (d, verdict.reasons)
            counts["prime"] += 1
    assert counts == {"prime": 124, ("composite", INCONCLUSIVE): 52,
                      ("composite", NOTQA): 24}, counts


def test_to_json_is_json_dumps_on_generated_certificates():
    for d in _alternating_closures(8, seed=5):
        cert = certify(d)
        assert isinstance(cert, Certificate)
        text = cert.to_json()
        assert text == json.dumps(cert.tree)
        assert json.loads(text) == cert.tree


@pytest.mark.parametrize("tree", [
    {"pd": "quote \" slash \\ / newline \n tab \t bell \x07",
     "na\u00efve": "\u00e9 \u2713 \U0001d11e", "empty": {}, "none": [],
     "consts": [True, False, None], "nested": [{"a": [[], {}]}, [[1, -2]]],
     "floats": [0.1, -2.5e-300, 1e300, float("inf"), float("-inf"),
                float("nan"), -0.0]},
    {1: "int key", 1.5: "float key", True: "bool key", None: "null key",
     "s": "str key"},
    {"tuple": (1, (2, 3)), "sub": collections.OrderedDict(b=1, a=[])},
    [], {}, "top-level string", 7, None,
], ids=["escapes", "non-str-keys", "tuple-and-subclass", "empty-list",
        "empty-dict", "string", "int", "null"])
def test_to_json_is_json_dumps_on_hand_built_trees(tree):
    cert = Certificate(tree)
    assert cert.to_json() == json.dumps(tree)


def test_to_json_rejects_what_json_rejects():
    for tree in ({"pd": {1, 2}}, {"kids": [object()]}, {(1, 2): "key"}):
        with pytest.raises(TypeError):
            Certificate(tree).to_json()
    loop = []
    loop.append({"children": loop})
    with pytest.raises(ValueError, match="Circular reference"):
        Certificate({"children": loop}).to_json()


def test_replay_refuses_a_wrong_child_below_an_unreduced_node():
    # a node stored unreduced, at a curl: one smoothing of the curl's
    # crossing splits off a free loop, and a child naming only the
    # crossings that remain is not that smoothing, though its other
    # child, certified, reduces to the same text. A search stores every
    # node at simplify's fixpoint, so replay refuses the node itself
    # before it reaches the children
    d = corpus.trefoil().connected_sum(corpus.curl()).canonical()
    c, r = next((c, r) for c in range(len(d.crossings)) for r in (0, 1)
                if d.smooth(c, r, untwist=True).free_loops)
    sm = d.smooth(c, r, untwist=True)
    assert sm.crossings
    right = certify(d.smooth(c, 1 - r, untwist=True)).tree["nodes"]
    assert Diagram(sm.crossings).canonical().render() == right[0][0]
    # both children name node 1, the text child 1 - r reduces to
    below = [node[:3] + [k if k == "leaf" else k + 1 for k in node[3:]]
             for node in right]
    tree = {"version": 3, "pd": d.render(),
            "nodes": [[d.render(), 3, c, 1, 1]] + below}
    with pytest.raises(ValueError) as err:
        replay_certificate(tree)
    assert str(err.value) == "reduced diagram mismatch"


def test_replay_names_a_wrong_child():
    tree = json.loads(TREFOIL_CERTIFICATE)
    tree["nodes"][0][3] = 1
    with pytest.raises(ValueError) as err:
        replay_certificate(tree)
    assert str(err.value) == "node 0: child 0 is not the 0-smoothing"


def test_replay_refuses_the_unknot_as_a_node():
    # the unknot's key is "", a leaf's; a node that stores "" in place
    # of a leaf is no node, so its parent's child is named
    tree = json.loads(TREFOIL_CERTIFICATE)
    tree["nodes"][0][3] = 2
    tree["nodes"].append(["", 1, 0, "leaf", "leaf"])
    with pytest.raises(ValueError) as err:
        replay_certificate(tree)
    assert str(err.value) == "node 0: child 0 is not the 0-smoothing"


@pytest.mark.hashseed
def test_replay_refuses_a_split_child():
    # two trefoils joined by a nugatory crossing: one smoothing of that
    # crossing is their split union, and a child names it by the text it
    # really reduces to. A split diagram is no node, so replay refuses
    # the child where it is derived, though the root's determinant adds
    # over it and the other child certifies
    d = braid_closure([1, 1, 1, -2, 3, 3, 3], 4)
    s = d.simplify().canonical()
    c, r = next((c, r) for c in range(len(s.crossings)) for r in (0, 1)
                if not s.smooth(c, r, untwist=True).is_connected())
    split = s.smooth(c, r, untwist=True).simplify().canonical()
    assert split.crossings and not split.is_connected()
    below = certify(s.smooth(c, 1 - r, untwist=True)).tree["nodes"]
    assert determinant(d) == below[0][1] == 9
    kids = [2, 2]
    kids[r] = 1
    nodes = [[s.render(), 9, c, *kids],
             [split.render(), 0, 0, "leaf", "leaf"]]
    nodes += [node[:3] + [k if k == "leaf" else k + 2 for k in node[3:]]
              for node in below]
    tree = {"version": 3, "pd": d.render(), "nodes": nodes}
    with pytest.raises(ValueError) as err:
        replay_certificate(tree)
    assert (str(err.value)
            == "node 0: child %d is not the %d-smoothing" % (r, r))


# the Hopf link's certificate in the version 1 layout, which wrote every
# child in full with its own PD text
V1_HOPF_CERTIFICATE = {
    "pd": "X[1,4,2,3] X[3,2,4,1]", "det": 2,
    "reduced_pd": "X[1,4,2,3] X[3,2,4,1]", "crossing": 0,
    "children": [{"pd": "X[1,1,2,2]", "det": 1, "leaf": True},
                 {"pd": "X[1,2,2,1]", "det": 1, "leaf": True}]}

# the trefoil's certificate in the version 2 layout, which nested each
# node's children in it
V2_TREFOIL_CERTIFICATE = {
    "version": 2, "pd": "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]",
    "reduced_pd": "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]", "det": 3,
    "crossing": 0, "children": [
        {"leaf": True},
        {"reduced_pd": "X[1,3,2,4] X[4,2,3,1]", "det": 2, "crossing": 0,
         "children": [{"leaf": True}, {"leaf": True}]}]}

_TREFOIL_PD = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"


@pytest.mark.parametrize("base, path, value", [
    ("trefoil", ("nodes", 0, 1), None),
    ("trefoil", ("nodes", 0), [_TREFOIL_PD, 3, 0]),
    ("trefoil", ("nodes", 0, 0), None), ("trefoil", ("nodes", 0, 2), None),
    ("trefoil", ("pd",), None), ("leaf", ("nodes",), None),
    ("trefoil", ("nodes", 0), [_TREFOIL_PD, 3, 0, 5]),
    ("trefoil", ("nodes", 0), [_TREFOIL_PD, 3, 0, 1, 2]),
    ("trefoil", ("nodes",), []),
    ("trefoil", ("nodes", 0, 0), ["X[1,4,2,5]"]), ("trefoil", ("pd",), 7),
    ("trefoil", (), [1, 2]), ("trefoil", (), "X[1,4,2,5]"),
    ("leaf", ("nodes",), True), ("trefoil", ("nodes", 0, 1), 3.0),
    ("trefoil", ("nodes", 0, 2), True),
    (None, None, "[" * 100000 + "]" * 100000),
    ("trefoil", ("nodes", 0, 3), {}),
    ("trefoil", ("nodes", 1, 1), None),
    ("trefoil", ("nodes", 0, 4), 2),
    ("trefoil", ("nodes", 0, 4), 7),
    ("trefoil", ("nodes", 1, 3), 1),
    ("trefoil", ("nodes", 1, 3), 0),
    ("trefoil", ("nodes", 0, 4), -1),
    ("trefoil", ("nodes", 0, 4), True),
    ("trefoil", ("nodes", 0, 4), "1"),
    ("trefoil", ("version",), None), ("trefoil", ("version",), 1),
    ("trefoil", ("version",), 3.0), ("trefoil", ("version",), "3"),
    ("leaf", ("version",), None), ("trefoil", (), V1_HOPF_CERTIFICATE),
    ("leaf", ("nodes",), [["", 2, 0, "leaf", "leaf"]]),
    ("trefoil", ("nodes", 0, 3), "alternating"),
    ("trefoil", ("nodes", 2), [_TREFOIL_PD, 3, 0, "leaf", "leaf"]),
    ("trefoil", ("nodes", 1), ["X[1,3,2,4] X[4,2,3,1]", 2, 0, "leaf",
                               "leaf", "leaf"]),
], ids=["no-det", "no-children", "no-reduced-pd", "no-crossing", "no-pd",
        "no-leaf-det", "children-int", "children-ints", "children-empty",
        "reduced-pd-list", "pd-int", "array", "string", "leaf-det-true",
        "det-float", "crossing-true", "nested-too-deep", "no-child-leaf",
        "no-child-det", "child-int", "ref-out-of-range", "ref-forward",
        "ref-ancestor", "ref-negative", "ref-true", "ref-string",
        "no-version", "version-1", "version-float", "version-string",
        "leaf-no-version", "v1-tree", "leaf-det-2", "child-kind-unknown",
        "node-no-parent", "node-too-long"])
def test_malformed_certificate_is_value_error(base, path, value):
    # value None deletes the key or array entry at path; an empty path
    # replaces the tree; path None makes value the JSON text, which only
    # from_json reads. The "leaf" base is the curl's certificate, a leaf
    # root, whose det is its empty node list. A child's index is its
    # reference to a node: ref-forward names its own node, ref-ancestor
    # its parent, child-int one past the last node
    if path is None:
        text = value
    else:
        tree = (json.loads(TREFOIL_CERTIFICATE) if base == "trefoil"
                else certify(corpus.curl()).tree)
        if not path:
            tree = value
        else:
            node = tree
            for k in path[:-1]:
                node = node[k]
            if value is None:
                del node[path[-1]]
            elif path[-1] == len(node):
                node.append(value)
            else:
                node[path[-1]] = value
        with pytest.raises(ValueError):
            replay_certificate(tree)
        text = json.dumps(tree)
    with pytest.raises(ValueError):
        replay_certificate(Certificate.from_json(text))


def test_version_2_is_refused_by_name():
    for read in (replay_certificate,
                 lambda tree: Certificate.from_json(json.dumps(tree))):
        with pytest.raises(ValueError) as err:
            read(V2_TREFOIL_CERTIFICATE)
        assert str(err.value) == 'certificate needs "version": 3'


def test_ref_errors_name_the_child():
    # a child is "leaf" or the index of a later node: any other child,
    # and a node that no node names, is refused by its index
    for k in (7, 2, 1, 0, -1, True, 1.0, "alternating", None):
        tree = json.loads(TREFOIL_CERTIFICATE)
        tree["nodes"][1][4] = k
        with pytest.raises(ValueError) as err:
            replay_certificate(tree)
        assert str(err.value) == ('node 1: child 1 is neither "leaf" nor '
                                  'a later node: %r' % (k,))
    tree = json.loads(TREFOIL_CERTIFICATE)
    tree["nodes"].append(tree["nodes"][1])
    with pytest.raises(ValueError) as err:
        replay_certificate(tree)
    assert str(err.value) == "node 2 has no parent"


def _shared_closure():
    # an alternating 3-braid closure whose certificate shares nodes
    return braid_closure([1, -2] * 4, 3)


def _parents(tree):
    """How many times each node of the table is named as a child."""
    count = [0] * len(tree["nodes"])
    for node in tree["nodes"]:
        for k in node[3:]:
            if k != "leaf":
                count[k] += 1
    return count


def _found_order(nodes):
    """The node indices in the order a depth-first walk from node 0,
    child 0 first, first meets them: the order of the search."""
    order, seen, stack = [], set(), [0]
    while stack:
        i = stack.pop()
        if i not in seen:
            seen.add(i)
            order.append(i)
            stack.extend(k for k in nodes[i][:2:-1] if k != "leaf")
    return order


def _near_shared_closure():
    # a non-alternating 4-braid closure whose certificate shares both
    # alternating and non-alternating nodes
    return braid_closure([3, -3, 3, 2, 2, 2, -3, -3, 2, 3, 3, 3], 4)


@pytest.mark.hashseed
def test_certificate_nodes_are_numbered_parents_first():
    # every child's index exceeds its parents', every node but 0 has a
    # parent, and each distinct reduced diagram is one node. Numbering
    # the nodes in the order the search finds them would break the first
    # rule on some of these trees: a shared child found below one parent
    # comes before another parent found later
    found_order_breaks = 0
    for d in (_alternating_closures(8, seed=5)
              + [_shared_closure(), _near_shared_closure()]):
        nodes = certify(d).tree["nodes"]
        assert len({node[0] for node in nodes}) == len(nodes)
        assert all(k == "leaf" or i < k < len(nodes)
                   for i, node in enumerate(nodes) for k in node[3:])
        order = _found_order(nodes)
        assert sorted(order) == list(range(len(nodes)))
        rank = {i: n for n, i in enumerate(order)}
        found_order_breaks += any(
            rank[k] < rank[i] for i, node in enumerate(nodes)
            for k in node[3:] if k != "leaf")
    assert found_order_breaks >= 1


@pytest.mark.hashseed
def test_a_certificate_600_levels_deep_round_trips():
    # the table nests to the same depth however deep the tree, so a tree
    # of 599 levels, past the JSON coders' recursion and the default
    # recursion limit, is written, read and replayed
    cert = certify(corpus.torus(600), Budget(max_depth=5000))
    nodes = cert.tree["nodes"]
    assert len(nodes) == 599 and _found_order(nodes) == list(range(599))
    back = Certificate.from_json(cert.to_json())
    assert back.tree == cert.tree
    assert replay_certificate(back)


def test_a_search_deeper_than_the_recursion_limit_is_out_of_budget():
    # the search takes a frame per level; one deeper than the
    # interpreter allows ends as any other overrun does
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        out = certify(corpus.torus(400), Budget(max_depth=5000))
    finally:
        sys.setrecursionlimit(limit)
    assert out == Unknown("budget")


def _spy(monkeypatch, owner, attr):
    """Record the PD text of the first argument of every call."""
    calls = []
    fn = getattr(owner, attr)

    def counting(d, *args, **kwargs):
        calls.append(d.render())
        return fn(d, *args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    return calls


def test_replay_checks_each_distinct_node_once(monkeypatch):
    # each distinct node is smoothed both ways at its crossing, once,
    # however many parents name it; an all-alternating tree reads no
    # black graph
    cert = certify(_shared_closure())
    keys = [node[0] for node in cert.tree["nodes"]]
    assert len(keys) == len(set(keys)) and max(_parents(cert.tree)) > 1
    smoothed = _spy(monkeypatch, Diagram, "smooth")
    graphs = _spy(monkeypatch, qalt.qa, "checkerboard")
    assert replay_certificate(Certificate.from_json(cert.to_json()))
    assert sorted(smoothed) == sorted(2 * keys)
    assert graphs == []


def test_replay_reads_each_distinct_non_alternating_black_graph_once(
        monkeypatch):
    cert = certify(_near_shared_closure())
    keys = [node[0] for node in cert.tree["nodes"]]
    mixed = [k for k in keys if not parse_pd(k).is_alternating()]
    shared = {k for k, n in zip(keys, _parents(cert.tree)) if n > 1}
    assert shared & set(mixed) and shared - set(mixed)
    smoothed = _spy(monkeypatch, Diagram, "smooth")
    graphs = _spy(monkeypatch, qalt.qa, "checkerboard")
    assert replay_certificate(Certificate.from_json(cert.to_json()))
    assert sorted(smoothed) == sorted(2 * keys)
    assert sorted(graphs) == sorted(mixed)


def test_certify_reads_black_graphs_of_non_alternating_nodes_only(
        monkeypatch):
    graphs = _spy(monkeypatch, qalt.qa, "checkerboard")
    assert isinstance(certify(_shared_closure()), Certificate)
    assert graphs == []
    assert isinstance(certify(_near_shared_closure()), Certificate)
    assert graphs
    assert not any(parse_pd(pd).is_alternating() for pd in graphs)


def test_replay_reduces_each_edge_once(monkeypatch):
    # the root and each child are reduced once, in index order, each to
    # the key of the entry it names: node k's text, or "" at a leaf
    tree = json.loads(certify(_shared_closure()).to_json())
    nodes = tree["nodes"]
    want = [nodes[0][0]] + ["" if k == "leaf" else nodes[k][0]
                            for node in nodes for k in node[3:]]
    assert max(_parents(tree)) > 1
    keys = []
    reduce = qalt.qa._reduce

    def counting(d):
        s, key = reduce(d)
        keys.append(key)
        return s, key

    monkeypatch.setattr("qalt.qa._reduce", counting)
    assert replay_certificate(tree)
    assert keys == want


def _additivity_error(nodes, i, det):
    return ("determinant additivity fails at node %d: %r + %r against %r"
            % (i, *(_det(nodes, k) for k in nodes[i][3:]), det))


def test_replay_rejects_tampering_inside_a_shared_copy():
    # a node that two parents share is one entry, checked once, and a
    # det changed there is refused there
    tree = json.loads(certify(_shared_closure()).to_json())
    nodes = tree["nodes"]
    i = max(j for j, n in enumerate(_parents(tree)) if n > 1)
    nodes[i][1] += 1
    with pytest.raises(ValueError) as err:
        replay_certificate(tree)
    assert str(err.value) == _additivity_error(nodes, i, nodes[i][1])


def _replay_error(text, i, change):
    """replay's error message, or None, on the tree of text after
    change(node i)."""
    tree = json.loads(text)
    change(tree["nodes"][i])
    try:
        replay_certificate(tree)
    except ValueError as err:
        return str(err)
    return None


def _child_error(nodes, i, c, r, kid):
    """The error replay gives for kid as child r of node i at crossing
    c, or None."""
    s = parse_pd(nodes[i][0])
    sm = s.smooth(c, r, untwist=True).simplify().canonical()
    if kid == "leaf":
        if sm.crossings or sm.component_count != 1:
            return "leaf does not simplify to the unknot"
        return None
    if sm.free_loops or sm.render() != nodes[kid][0]:
        return "node %d: child %d is not the %d-smoothing" % (i, r, r)
    return None


@pytest.mark.hashseed
def test_replay_rejects_single_edits_of_an_alternating_certificate():
    # every node of an all-alternating tree, one edit at a time: a det
    # that is not the sum of the children's, a crossing whose untwisted
    # smoothings do not reduce to the children, swapped children, a
    # child index naming another later node
    text = certify(_shared_closure()).to_json()
    nodes = json.loads(text)["nodes"]
    edits = collections.Counter()

    def put(j, value):
        return lambda node: node.__setitem__(j, value)

    for i, (_, det, c, *kids) in enumerate(nodes):
        assert (_replay_error(text, i, put(1, det + 1))
                == _additivity_error(nodes, i, det + 1))
        other = (c + 1) % len(parse_pd(nodes[i][0]).crossings)
        want = next(filter(None, (_child_error(nodes, i, other, r, kids[r])
                                  for r in (0, 1))), None)
        assert _replay_error(text, i, put(2, other)) == want
        edits["crossing"] += want is not None
        if kids[0] != kids[1]:
            want = (_child_error(nodes, i, c, 0, kids[1])
                    or _child_error(nodes, i, c, 1, kids[0]))
            assert want is not None
            assert _replay_error(text, i, put(slice(3, 5), kids[::-1])) == want
            edits["swap"] += 1
        for r, k in enumerate(kids):
            other = next((j for j in reversed(range(i + 1, len(nodes)))
                          if j != k), None)
            if k != "leaf" and other is not None:
                assert (_replay_error(text, i, put(3 + r, other))
                        == "node %d: child %d is not the %d-smoothing"
                        % (i, r, r))
                edits["index"] += 1
    assert min(edits.values()) >= 8, edits


def test_certificates_of_alternating_closures_stay_small():
    # seeded alternating closures of 20 and 26 crossings certify with
    # the depth bound raised to the crossing count (the default, 24,
    # binds above 24 crossings) and replay; each distinct node is
    # written once, so the JSON stays far below the size of the tree
    # with every shared subtree copied out
    rng = random.Random(7)
    for n in (20, 26):
        done = 0
        while done < 3:
            strands = rng.randint(3, 5)
            word = [i if i % 2 else -i
                    for i in (rng.randint(1, strands - 1) for _ in range(n))]
            if not all(sum(abs(g) == i for g in word) >= 2
                       for i in range(1, strands)):
                continue
            d = braid_closure(word, strands)
            cert = certify(d, Budget(max_depth=n))
            assert isinstance(cert, Certificate), word
            text = cert.to_json()
            assert len(text) < 1 << 20, (word, len(text))
            assert replay_certificate(Certificate.from_json(text))
            done += 1


def _with_curls(d, n):
    for _ in range(n):
        d = d.connected_sum(corpus.curl())
    return d


@pytest.mark.parametrize("base", [corpus.figure_eight, corpus.hopf])
def test_a_pass_budget_that_binds_ends_the_search(base):
    # the three curls take three simplify passes to undo; with fewer,
    # the root is left short of its fixpoint, and that ends the search
    # as a node or depth overrun does, so no certificate holds a partial
    # reduction, and a pass count that does not bind changes nothing
    d = _with_curls(base(), 3)
    for passes in range(3):
        assert certify(d, Budget(simplify_passes=passes)) == Unknown("budget")
    cert = certify(d, Budget(simplify_passes=3))
    assert cert == certify(d)
    assert cert.tree["nodes"][0][0] == d.simplify().canonical().render()
    assert replay_certificate(cert)
    bad = json.loads(cert.to_json())
    bad["nodes"][0][0] = corpus.trefoil().render()
    with pytest.raises(ValueError, match="reduced diagram mismatch"):
        replay_certificate(Certificate(bad))


def test_simplify_runs_to_the_fixpoint():
    # sixty curls take more than fifty greedy moves to undo
    unknot = _with_curls(corpus.curl(), 59)
    assert unknot.simplify() == Diagram((), 1)
    assert len(unknot.simplify(50).crossings) == 10
    assert Budget().simplify_passes is None
    cert = certify(unknot)
    assert isinstance(cert, Certificate)
    assert replay_certificate(cert)
    assert len(_with_curls(corpus.trefoil(), 60).simplify().crossings) == 3


def test_certified_links_never_obstructed():
    for e in corpus.entries():
        cert = certify(e.diagram)
        assert isinstance(cert, Certificate)
        out = obstruct(jones(e.diagram), determinant(e.diagram),
                       prime=e.prime)
        assert out.status == INCONCLUSIVE, (e.name, out.reasons)


def test_connected_sum_factors_certify_within_same_budget():
    budget = Budget()
    for whole, parts in [
        (corpus.hopf_hopf(), (corpus.hopf(), corpus.hopf())),
        (corpus.hopf_trefoil(), (corpus.hopf(), corpus.trefoil())),
    ]:
        assert isinstance(certify(whole, budget), Certificate)
        for part in parts:
            assert isinstance(certify(part, budget), Certificate)


def test_non_prime_certified_links_have_many_gaps_only_as_hopf_sums():
    # the paper's last theorem: the Jones polynomial of a non-prime QA
    # link has more than one gap exactly when the link is a connected
    # sum of Hopf links; a sum of k Hopf links has det 2^k and k gaps.
    # No rule of the battery fires without the prime assumption
    H, T, E = corpus.hopf(), corpus.trefoil(), corpus.figure_eight()
    hopf_sums = [(H, H), (H, H.mirror()), (H, H, H),
                 (H, H.mirror(), H, H.mirror()), (H,) * 5]
    others = [(H, T), (H, E), (T, E), (T, T.mirror()), (E, E), (H, H, T),
              (H, corpus.torus(5)), (corpus.torus(4), corpus.torus(4))]
    for factors, hopf_sum in ([(f, True) for f in hopf_sums]
                              + [(f, False) for f in others]):
        d = functools.reduce(Diagram.connected_sum, factors)
        cert = certify(d)
        assert isinstance(cert, Certificate), factors
        assert replay_certificate(cert)
        v = jones(d)
        gaps = analyze(v, step2=2).gap_count()
        if hopf_sum:
            assert (_root_det(cert.tree), gaps) == (2 ** len(factors),
                                                len(factors)), factors
        else:
            assert gaps <= 1, factors
        out = obstruct(v, _root_det(cert.tree), prime=False)
        assert out.status == INCONCLUSIVE, (factors, out.reasons)


def test_no_cancellation_at_certified_crossings():
    # the two skein parts of the tree polynomial never cancel a
    # coefficient at a crossing the certifier accepted
    for e in corpus.entries():
        cert = certify(e.diagram)
        for key, _, c, *_ in cert.tree["nodes"]:
            d = parse_pd(key)
            g, _ = checkerboard(d)
            assert not is_loop(g, c) and not is_isthmus(g, c)
            s = g.edges[c][2]
            part0 = gamma(delete(g, c)).shift2(-2 * s)
            part1 = gamma(contract(g, c)).shift2(2 * s)
            whole = gamma(g)
            assert part0 + part1 == whole
            for e2 in set(dict(part0.items2())) | set(dict(part1.items2())):
                a = dict(part0.items2()).get(e2, 0)
                b = dict(part1.items2()).get(e2, 0)
                assert abs(a + b) == abs(a) + abs(b), (e.name, c, e2)


# pretzel links


def test_pretzel_draws_known_links():
    def up_to_mirror(v):
        return [v, HalfLaurent({-e2: c for e2, c in v.items2()})]

    assert jones(pretzel(1, 1, 1)) in up_to_mirror(jones(corpus.trefoil()))
    # 8_19, the torus knot T(3,4)
    assert jones(pretzel(3, 3, -2)) in up_to_mirror(hl((3, 1), (5, 1),
                                                       (8, -1)))
    for p in (-3, -2, 1, 2, 3):
        for q in (-3, -1, 2, 4):
            for r in (-2, 1, 3):
                assert determinant(pretzel(p, q, r)) == abs(
                    p * q + q * r + r * p), (p, q, r)


def test_pretzel_links_known_answers():
    # P(p1, ..., pn, -q) with p_i >= 2 and q > min(p_i) is QA
    # (Champanerkar-Kofman): each certifies and replays. The battery's
    # NotQA is a theorem, so none that it rejects certifies. The
    # P(p1, p2, -1) of det >= 1 are 2-bridge, hence QA, but the search,
    # which makes no R3 move, does not find them: nothing is asserted
    # about them
    qa = rejected = 0
    for cols, q in pretzel_cases():
        d = pretzel(*cols, -q)
        out = certify(d, Budget(max_nodes=2000))
        if q > min(cols):
            assert isinstance(out, Certificate), (cols, q, out)
            assert replay_certificate(Certificate.from_json(out.to_json()))
            qa += 1
        elif obstruct(jones(d), determinant(d)).status == NOTQA:
            assert not isinstance(out, Certificate), (cols, q)
            rejected += 1
    assert (qa, rejected) == (95, 30)


# Kanenobu family


def test_kanenobu_closed_form_p0_q0():
    v = kanenobu_jones(0, 0)
    assert v == hl((-4, 1), (-3, -2), (-2, 3), (-1, -4), (0, 5),
                   (1, -4), (2, 3), (3, -2), (4, 1))


def test_kanenobu_determinant_25_on_grid():
    for p in range(-10, 11):
        for q in range(-10, 11):
            assert kanenobu_jones(p, q).abs_at_minus_one() == 25


def test_kanenobu_gap_at_sum_six():
    v = kanenobu_jones(3, 3)
    support = [e2 // 2 for e2, _ in v.items2()]
    assert support == [0] + list(range(2, 11))


def test_kanenobu_obstruction_cases():
    assert kanenobu_obstruction(10, 9).status == NOTQA
    assert kanenobu_obstruction(4, 3).status == NOTQA
    assert kanenobu_obstruction(0, 0).status == INCONCLUSIVE
    assert kanenobu_obstruction(-4, -3).status == NOTQA
    assert kanenobu_obstruction(-10, -9).status == NOTQA


def test_kanenobu_disagreement_is_reported_not_resolved():
    kv = kanenobu_obstruction(3, 3)
    assert kv.status == INCONCLUSIVE
    assert kv.agrees is False
    verdict = obstruct(kanenobu_jones(3, 3), 25, prime=True)
    assert verdict.status == NOTQA
    assert "gap" in rule_ids(verdict)
    agree = kanenobu_obstruction(0, 0)
    assert agree.agrees is True


def test_kanenobu_contiguous_band():
    for s in (-5, -4, 4, 5):
        v = kanenobu_jones(s, 0)
        support = sorted(e2 for e2, _ in v.items2())
        lo, hi = support[0], support[-1]
        assert support == list(range(lo, hi + 2, 2))

import collections
import hashlib
import json
import random

import pytest

import qalt.qa
import qalt.tait
from conftest import braid_closure, pretzel, pretzel_cases
from oracles import contract, delete, is_isthmus, is_loop, rule_ids
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


def test_obstruct_collects_multiple_reasons():
    v = hl((0, 1), (1, 1), (3, 1))
    out = obstruct(v, 1, prime=True)
    assert out.status == NOTQA
    assert len(out.reasons) >= 2


# certification


def test_certify_unknot_leaf():
    cert = certify(corpus.unknot())
    assert cert.tree == {"version": 2, "pd": "", "det": 1, "leaf": True}
    assert replay_certificate(cert)


def test_certify_curl_is_leaf():
    cert = certify(corpus.curl())
    assert cert.tree["leaf"] and cert.tree["det"] == 1


def test_certify_hopf_shape():
    cert = certify(corpus.hopf())
    t = cert.tree
    assert t["det"] == 2 and t["crossing"] == 0
    assert t["children"][0]["leaf"] and t["children"][1]["leaf"]
    assert replay_certificate(cert)


def test_certify_trefoil_children():
    cert = certify(corpus.trefoil())
    t = cert.tree
    assert t["det"] == 3
    dets = sorted(1 if kid.get("leaf") else kid["det"]
                  for kid in t["children"])
    assert dets == [1, 2]
    assert replay_certificate(cert)


def test_certify_whole_corpus_and_replay():
    for e in corpus.entries():
        cert = certify(e.diagram)
        assert isinstance(cert, Certificate), e.name
        assert cert.tree["det"] == e.det
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
    assert d.face_count() != len(d.crossings) + 2
    with pytest.raises(NoEmbedding):
        certify(d)
    s = d.simplify().canonical()
    tree = {"version": 2, "pd": d.render(), "reduced_pd": s.render(),
            "det": 2, "crossing": 0,
            "children": [{"leaf": True}, {"leaf": True}]}
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
               % (d.face_count(), len(d.crossings) + 2))
    leaf = {"version": 2, "pd": pd, "det": 1, "leaf": True}
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


# the keys of an internal node below the root
_NODE_KEYS = ("reduced_pd", "det", "crossing", "children")


def test_replay_rejects_tampering():
    cert = certify(corpus.trefoil())
    bad = json.loads(cert.to_json())
    bad["det"] = 4
    with pytest.raises(ValueError):
        replay_certificate(Certificate(bad))
    bad2 = json.loads(cert.to_json())
    hopf = certify(corpus.hopf()).tree
    bad2["children"][0] = {k: hopf[k] for k in _NODE_KEYS}
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
  "version": 2,
  "pd": "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]",
  "reduced_pd": "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]",
  "det": 3,
  "crossing": 0,
  "children": [
    {
      "leaf": true
    },
    {
      "reduced_pd": "X[1,3,2,4] X[4,2,3,1]",
      "det": 2,
      "crossing": 0,
      "children": [
        {
          "leaf": true
        },
        {
          "leaf": true
        }
      ]
    }
  ]
}"""


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
    "9b1b5bb87518213053c4fd5bc0e62d324b532aa5f73b54bc73aa1b7e2032b10a")


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
        assert len(_internal_nodes(cert.tree)) > 3
        assert replay_certificate(Certificate.from_json(cert.to_json()))
    assert not any(scans)
    assert len(scans) == 2 * len(closures)


def test_certified_closures_satisfy_the_papers_bounds():
    # a certificate proves membership, so no rule of the battery without
    # flags may fire, and breadth(V) <= det must hold
    closures = (_alternating_closures(30, seed=11)
                + _near_alternating_closures(120, seed=12))
    certified = 0
    for d in closures:
        out = certify(d, Budget(max_nodes=300))
        if not isinstance(out, Certificate):
            continue
        certified += 1
        v = jones(d)
        det = out.tree["det"]
        assert det == v.abs_at_minus_one()
        verdict = obstruct(v, det)
        assert verdict.status == INCONCLUSIVE, verdict.reasons
        assert analyze(v, step2=2).breadth2 <= 2 * det
    assert certified >= 110, certified


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


def test_replay_names_a_wrong_child_of_a_free_loop_smoothing():
    # a node stored unreduced, at a curl: one smoothing of the curl's
    # crossing splits off a free loop, and a child naming only the
    # crossings that remain is not that smoothing, though its other
    # child, certified, reduces to the same text
    d = corpus.trefoil().connected_sum(corpus.curl()).canonical()
    c, r = next((c, r) for c in range(len(d.crossings)) for r in (0, 1)
                if d.smooth(c, r, untwist=True).free_loops)
    sm = d.smooth(c, r, untwist=True)
    assert sm.crossings
    right = certify(d.smooth(c, 1 - r, untwist=True)).tree
    assert not _refs(right)
    assert Diagram(sm.crossings).canonical().render() == right["reduced_pd"]
    # child r names the text child 1 - r reduces to: by a ref when child
    # 1 - r comes first, in full otherwise
    kids = [None, None]
    kids[1 - r] = {k: right[k] for k in _NODE_KEYS}
    kids[r] = {"ref": 1} if r else dict(kids[1])
    tree = {"version": 2, "pd": d.render(), "reduced_pd": d.render(),
            "det": 3, "crossing": c, "children": kids}
    with pytest.raises(ValueError) as err:
        replay_certificate(tree)
    assert str(err.value) == "child %d is not the %d-smoothing" % (r, r)


def test_replay_names_a_wrong_child():
    tree = json.loads(TREFOIL_CERTIFICATE)
    tree["children"][0] = tree["children"][1]
    with pytest.raises(ValueError) as err:
        replay_certificate(tree)
    assert str(err.value) == "child 0 is not the 0-smoothing"


# the Hopf link's certificate in the version 1 layout, which wrote every
# child in full with its own PD text
V1_HOPF_CERTIFICATE = {
    "pd": "X[1,4,2,3] X[3,2,4,1]", "det": 2,
    "reduced_pd": "X[1,4,2,3] X[3,2,4,1]", "crossing": 0,
    "children": [{"pd": "X[1,1,2,2]", "det": 1, "leaf": True},
                 {"pd": "X[1,2,2,1]", "det": 1, "leaf": True}]}


@pytest.mark.parametrize("base, path, value", [
    ("trefoil", ("det",), None), ("trefoil", ("children",), None),
    ("trefoil", ("reduced_pd",), None), ("trefoil", ("crossing",), None),
    ("trefoil", ("pd",), None), ("leaf", ("det",), None),
    ("trefoil", ("children",), 5), ("trefoil", ("children",), [1, 2]),
    ("trefoil", ("children",), []),
    ("trefoil", ("reduced_pd",), ["X[1,4,2,5]"]), ("trefoil", ("pd",), 7),
    ("trefoil", (), [1, 2]), ("trefoil", (), "X[1,4,2,5]"),
    ("leaf", ("det",), True), ("trefoil", ("det",), 3.0),
    ("trefoil", ("crossing",), True),
    (None, None, "[" * 100000 + "]" * 100000),
    ("trefoil", ("children", 0, "leaf"), None),
    ("trefoil", ("children", 1, "det"), None),
    ("trefoil", ("children", 0), 5),
    ("trefoil", ("children", 0), {"ref": 7}),
    ("trefoil", ("children", 0), {"ref": 1}),
    ("trefoil", ("children", 0), {"ref": 0}),
    ("trefoil", ("children", 0), {"ref": -1}),
    ("trefoil", ("children", 0), {"ref": True}),
    ("trefoil", ("children", 0), {"ref": "0"}),
    ("trefoil", ("version",), None), ("trefoil", ("version",), 1),
    ("trefoil", ("version",), 2.0), ("trefoil", ("version",), "2"),
    ("leaf", ("version",), None), ("trefoil", (), V1_HOPF_CERTIFICATE),
    ("leaf", ("det",), 2),
], ids=["no-det", "no-children", "no-reduced-pd", "no-crossing", "no-pd",
        "no-leaf-det", "children-int", "children-ints", "children-empty",
        "reduced-pd-list", "pd-int", "array", "string", "leaf-det-true",
        "det-float", "crossing-true", "nested-too-deep", "no-child-leaf",
        "no-child-det", "child-int", "ref-out-of-range", "ref-forward",
        "ref-ancestor", "ref-negative", "ref-true", "ref-string",
        "no-version", "version-1", "version-float", "version-string",
        "leaf-no-version", "v1-tree", "leaf-det-2"])
def test_malformed_certificate_is_value_error(base, path, value):
    # value None deletes the key at path; an empty path replaces the
    # tree; path None makes value the JSON text, which only from_json
    # reads. The "leaf" base is the curl's certificate, a leaf root
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
            else:
                node[path[-1]] = value
        with pytest.raises(ValueError):
            replay_certificate(tree)
        text = json.dumps(tree)
    with pytest.raises(ValueError):
        replay_certificate(Certificate.from_json(text))


def test_ref_errors_name_the_child():
    tree = json.loads(TREFOIL_CERTIFICATE)
    for ref in (7, 1, 0, -1, True):
        tree["children"][1] = {"ref": ref}
        with pytest.raises(ValueError) as err:
            replay_certificate(tree)
        assert str(err.value) == ("child 1 refers to no node checked "
                                  "before it: %r" % ref)


def _shared_closure():
    # an alternating 3-braid closure whose certificate shares nodes
    return braid_closure([1, -2] * 4, 3)


def _entries(tree, path=()):
    """(path, entry) for every entry of a certificate tree in preorder,
    the path as keys from the root: full nodes, refs and leaves."""
    yield path, tree
    if "reduced_pd" in tree:
        for r, kid in enumerate(tree["children"]):
            yield from _entries(kid, path + ("children", r))


def _internal_nodes(tree):
    """The full internal nodes in preorder: {"ref": i} names the i-th."""
    return [node for _, node in _entries(tree) if "reduced_pd" in node]


def _refs(tree):
    return [node["ref"] for _, node in _entries(tree) if "ref" in node]


def _near_shared_closure():
    # a non-alternating 4-braid closure whose certificate shares both
    # alternating and non-alternating nodes
    return braid_closure([3, -3, 3, 2, 2, 2, -3, -3, 2, 3, 3, 3], 4)


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
    # however many refs name it; an all-alternating tree reads no black
    # graph
    cert = certify(_shared_closure())
    keys = [n["reduced_pd"] for n in _internal_nodes(cert.tree)]
    assert len(keys) == len(set(keys)) and _refs(cert.tree)
    smoothed = _spy(monkeypatch, Diagram, "smooth")
    graphs = _spy(monkeypatch, qalt.qa, "checkerboard")
    assert replay_certificate(Certificate.from_json(cert.to_json()))
    assert sorted(smoothed) == sorted(2 * keys)
    assert graphs == []


def test_replay_reads_each_distinct_non_alternating_black_graph_once(
        monkeypatch):
    cert = certify(_near_shared_closure())
    keys = [n["reduced_pd"] for n in _internal_nodes(cert.tree)]
    mixed = [k for k in keys if not parse_pd(k).is_alternating()]
    shared = {keys[i] for i in _refs(cert.tree)}
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
    # the root and each child that is not a leaf are reduced once, in
    # preorder: a ref's smoothing is reduced to the text it names
    tree = json.loads(certify(_shared_closure()).to_json())
    keys = [n["reduced_pd"] for n in _internal_nodes(tree)]
    want = [n["reduced_pd"] if "ref" not in n else keys[n["ref"]]
            for _, n in _entries(tree) if not n.get("leaf")]
    assert len(want) == len(keys) + len(_refs(tree)) > len(keys)
    wanted = []
    reduced = qalt.qa._reduced

    def counting(d, want):
        wanted.append(want)
        return reduced(d, want)

    monkeypatch.setattr("qalt.qa._reduced", counting)
    assert replay_certificate(tree)
    assert wanted == want


def test_replay_rejects_tampering_inside_a_shared_copy():
    # a node that refs share is checked once, where it is written in
    # full, and a det changed there is refused there
    tree = json.loads(certify(_shared_closure()).to_json())
    target = _internal_nodes(tree)[max(_refs(tree))]
    det = target["det"]
    target["det"] = det + 1
    with pytest.raises(ValueError) as err:
        replay_certificate(tree)
    assert str(err.value) == "stored det %d != %d" % (det + 1, det)


def test_replay_refuses_a_key_written_in_full_twice():
    tree = certify(_shared_closure()).tree
    full = _internal_nodes(tree)
    path = next(p for p, n in _entries(tree) if "ref" in n)
    node = tree
    for k in path[:-1]:
        node = node[k]
    copy = json.loads(json.dumps(full[node[path[-1]]["ref"]]))
    node[path[-1]] = copy
    cert = Certificate.from_json(json.dumps(tree))
    with pytest.raises(ValueError) as err:
        replay_certificate(cert)
    assert str(err.value) == ("node %r is written in full twice"
                              % copy["reduced_pd"])


def _replay_error(text, path, change):
    """replay's error message, or None, on the tree of text after
    change(node) at path."""
    tree = json.loads(text)
    node = tree
    for k in path:
        node = node[k]
    change(node)
    try:
        replay_certificate(tree)
    except ValueError as err:
        return str(err)
    return None


def _child_error(s, c, r, kid, keys):
    """The error replay gives for kid as child r of the node s at
    crossing c, or None; a ref is taken to name a node checked before."""
    sm = s.smooth(c, r, untwist=True).simplify().canonical()
    if kid.get("leaf"):
        if sm.crossings or sm.component_count != 1:
            return "leaf does not simplify to the unknot"
        return None
    key = keys[kid["ref"]] if "ref" in kid else kid["reduced_pd"]
    if sm.free_loops or sm.render() != key:
        return "child %d is not the %d-smoothing" % (r, r)
    return None


def test_replay_rejects_single_edits_of_an_alternating_certificate():
    # every entry of an all-alternating tree, one edit at a time: a det
    # that is not the sum of the children's, a crossing whose untwisted
    # smoothings do not reduce to the children, swapped children, a ref
    # to another node checked before it
    text = certify(_shared_closure()).to_json()
    tree = json.loads(text)
    keys = [n["reduced_pd"] for n in _internal_nodes(tree)]
    paths = [p for p, n in _entries(tree) if "reduced_pd" in n]
    edits = collections.Counter()
    written = 0
    for path, node in _entries(tree):
        if "ref" in node:
            # the latest node written before it that is not its ancestor
            other = next((j for j in reversed(range(written))
                          if paths[j] != path[:len(paths[j])]
                          and j != node["ref"]), None)
            if other is not None:
                r = path[-1]
                assert (_replay_error(text, path,
                                      lambda n: n.update(ref=other))
                        == "child %d is not the %d-smoothing" % (r, r))
                edits["ref"] += 1
            continue
        if node.get("leaf"):
            continue
        written += 1
        det = node["det"]
        assert (_replay_error(text, path, lambda n: n.update(det=det + 1))
                == "stored det %d != %d" % (det + 1, det))
        s = parse_pd(node["reduced_pd"])
        other = (node["crossing"] + 1) % len(s.crossings)
        kids = node["children"]
        want = next(filter(None, (_child_error(s, other, r, kids[r], keys)
                                  for r in (0, 1))), None)
        assert (_replay_error(text, path,
                              lambda n: n.update(crossing=other)) == want)
        edits["crossing"] += want is not None
        if not any("ref" in kid for kid in kids) and kids[0] != kids[1]:
            want = ("leaf does not simplify to the unknot"
                    if kids[1].get("leaf") else
                    "child 0 is not the 0-smoothing")
            assert (_replay_error(text, path,
                                  lambda n: n["children"].reverse())
                    == want)
            edits["swap"] += 1
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
def test_replay_accepts_partial_reduction(base):
    # two simplify passes stop the search's reduction short of the
    # fixpoint that replay reaches
    d = _with_curls(base(), 3)
    cert = certify(d, Budget(simplify_passes=2))
    assert isinstance(cert, Certificate)
    assert cert.tree["reduced_pd"] != d.simplify().canonical().render()
    assert replay_certificate(cert)
    bad = json.loads(cert.to_json())
    bad["reduced_pd"] = corpus.trefoil().render()
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


def test_no_cancellation_at_certified_crossings():
    # the two skein parts of the tree polynomial never cancel a
    # coefficient at a crossing the certifier accepted
    for e in corpus.entries():
        cert = certify(e.diagram)
        for node in _internal_nodes(cert.tree):
            d, c = parse_pd(node["reduced_pd"]), node["crossing"]
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

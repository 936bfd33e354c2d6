import collections
import hashlib
import json
import random

import pytest

import qalt.qa
from conftest import braid_closure
from qalt import cli, corpus
from qalt.bracket import determinant, jones
from qalt.diagram import Diagram, SplitDiagram, parse_pd
from qalt.laurent import HalfLaurent, ZeroPolynomial, analyze, parse
from qalt.qa import (INCONCLUSIVE, NOTQA, Budget, Certificate, QAVerdict,
                     Unknown, certify, kanenobu_jones, kanenobu_obstruction,
                     obstruct, replay_certificate, torus_2n_jones)
from qalt.tait import NoEmbedding, checkerboard, gamma


def hl(*pairs):
    return HalfLaurent({2 * e: c for e, c in pairs})


# obstruction battery


def test_obstruct_breadth_rule():
    v = hl((0, 1), (1, -1), (2, 1), (3, -1), (4, 1), (5, -1), (6, 1))
    out = obstruct(v, 5)
    assert out.status == NOTQA
    assert "breadth" in out.rule_ids()


def test_obstruct_gap_rule_needs_flags():
    v = hl((0, 1), (2, 1))  # gap at exponent 1
    assert obstruct(v, 5, prime=True).status == NOTQA
    assert "gap" in obstruct(v, 5, prime=True).rule_ids()
    # without the primality assertion the gap alone cannot fire
    res = obstruct(v, 5, prime=False)
    assert "gap" not in res.rule_ids()


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
    assert "gap" in obstruct(jones(corpus.torus(5)), 7, prime=True).rule_ids()


def test_obstruct_multi_gap_rule():
    v = hl((0, 1), (2, 1), (5, 1))  # gaps at 1 and 3..4
    out = obstruct(v, 9, prime=False)
    assert out.status == NOTQA
    assert "multi-gap" in out.rule_ids()


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
    assert "small-breadth" in out.rule_ids()


def test_obstruct_alternation_rule():
    v = hl((0, 1), (1, 1))
    out = obstruct(v, 5)
    assert "not-alternating" in out.rule_ids()


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
        assert out.rule_ids()[0] == "det"
        assert out.reasons[0][2] == {"det": 0}
    # det 1 is the unknot's alone
    assert obstruct(HalfLaurent.one(), 1).status == INCONCLUSIVE
    assert obstruct(HalfLaurent.one(), 1, prime=True).status == INCONCLUSIVE
    v = hl((0, 1), (1, -1))  # breadth 1: no other rule fires at det 1
    assert obstruct(v, 1).rule_ids() == ("det",)
    assert obstruct(v, 2).status == INCONCLUSIVE


def test_obstruct_collects_multiple_reasons():
    v = hl((0, 1), (1, 1), (3, 1))
    out = obstruct(v, 1, prime=True)
    assert out.status == NOTQA
    assert len(out.reasons) >= 2


# certification


def test_certify_unknot_leaf():
    cert = certify(corpus.unknot())
    assert cert.tree == {"pd": "", "det": 1, "leaf": True}
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
    dets = sorted(kid["det"] for kid in t["children"])
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
    assert back.root == cert.root
    assert replay_certificate(back)


def test_certify_rejects_split():
    with pytest.raises(SplitDiagram):
        certify(Diagram((), 2))
    with pytest.raises(SplitDiagram):
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
    kids = [{"pd": s.smooth(0, r).render(), "det": 1, "leaf": True}
            for r in (0, 1)]
    tree = {"pd": d.render(), "det": 2, "reduced_pd": s.render(),
            "crossing": 0, "children": kids}
    with pytest.raises(NoEmbedding):
        replay_certificate(tree)


def test_certify_budget_exhaustion_is_unknown():
    out = certify(corpus.torus(7), Budget(max_nodes=3))
    assert isinstance(out, Unknown)
    assert out.reason == "budget"


def test_replay_rejects_tampering():
    cert = certify(corpus.trefoil())
    bad = json.loads(cert.to_json())
    bad["det"] = 4
    with pytest.raises(ValueError):
        replay_certificate(Certificate(root=cert.root, tree=bad))
    bad2 = json.loads(cert.to_json())
    bad2["children"][0]["pd"] = corpus.hopf().render()
    with pytest.raises(ValueError):
        replay_certificate(Certificate(root=cert.root, tree=bad2))


def test_replay_checks_the_certificates_root():
    tree = certify(corpus.trefoil()).tree
    with pytest.raises(ValueError, match="root"):
        replay_certificate(Certificate(root=corpus.figure_eight(), tree=tree))
    # the raw tree is rooted at its own "pd"
    assert replay_certificate(tree)
    # text that differs but parses to the root is accepted
    spaced = dict(tree, pd=tree["pd"].replace(",", ", "))
    assert replay_certificate(Certificate(root=corpus.trefoil(), tree=spaced))


TREFOIL_CERTIFICATE = """{
  "pd": "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]",
  "det": 3,
  "reduced_pd": "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]",
  "crossing": 0,
  "children": [
    {
      "pd": "X[1,1,2,4] X[3,3,4,2]",
      "det": 1,
      "leaf": true
    },
    {
      "pd": "X[1,3,2,4] X[4,2,3,1]",
      "det": 2,
      "reduced_pd": "X[1,3,2,4] X[4,2,3,1]",
      "crossing": 0,
      "children": [
        {
          "pd": "X[1,1,2,2]",
          "det": 1,
          "leaf": true
        },
        {
          "pd": "X[1,2,2,1]",
          "det": 1,
          "leaf": true
        }
      ]
    }
  ]
}"""


def test_trefoil_certificate_is_pinned(capsys):
    # the children's PD text depends on how a smoothing orients its
    # fused arcs (each takes the direction of its lowest fragment);
    # qalt certify prints the tree indented, to_json writes it compact
    assert cli.main(["certify", "--pd", corpus.trefoil().render()]) == 0
    assert capsys.readouterr().out == TREFOIL_CERTIFICATE + "\n"
    text = certify(corpus.trefoil()).to_json()
    assert json.loads(text) == json.loads(TREFOIL_CERTIFICATE)


# sha256 over the certificates, or Unknown reasons, of seeded
# near-alternating braid closures under a 300-node budget: 36 certified,
# 21 exhausted, 3 over budget, each certificate hashed as its indented
# JSON. The search must not depend on set or dict order, so CI runs this
# under two PYTHONHASHSEED values.
SEEDED_CERTIFICATES_DIGEST = (
    "bae531173f66591001b4eba9436c1a8f0107f53f1b62e16c6dca6eecf3cfc95d")


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
    cert = Certificate(root=corpus.trefoil(), tree=tree)
    assert cert.to_json() == json.dumps(tree)


def test_to_json_rejects_what_json_rejects():
    for tree in ({"pd": {1, 2}}, {"kids": [object()]}, {(1, 2): "key"}):
        with pytest.raises(TypeError):
            Certificate(root=corpus.trefoil(), tree=tree).to_json()
    loop = []
    loop.append({"children": loop})
    with pytest.raises(ValueError, match="Circular reference"):
        Certificate(root=corpus.trefoil(), tree={"children": loop}).to_json()


def test_replay_names_a_wrong_child_of_a_free_loop_smoothing():
    # a node stored unreduced, at a curl: one smoothing of the curl's
    # crossing splits off a free loop, and a child showing only the
    # crossings that remain is not that smoothing
    d = corpus.trefoil().connected_sum(corpus.curl()).canonical()
    c, r = next((c, r) for c in range(len(d.crossings)) for r in (0, 1)
                if d.smooth(c, r).free_loops)
    sm = d.smooth(c, r)
    assert sm.crossings
    kids = [{"pd": d.smooth(c, k).render() if k != r
             else Diagram(sm.crossings).render(), "det": 1, "leaf": True}
            for k in (0, 1)]
    tree = {"pd": d.render(), "det": 3, "reduced_pd": d.render(),
            "crossing": c, "children": kids}
    with pytest.raises(ValueError) as err:
        replay_certificate(tree)
    assert str(err.value) == "child %d is not the %d-smoothing" % (r, r)


def test_replay_parses_a_child_that_differs_only_in_spacing():
    tree = json.loads(TREFOIL_CERTIFICATE)
    tree["children"][1]["pd"] = " X[1, 3,2,4]   X[4,2,3,1] "
    assert replay_certificate(tree)


def test_replay_names_a_wrong_child():
    tree = json.loads(TREFOIL_CERTIFICATE)
    tree["children"][0]["pd"] = tree["children"][1]["pd"]
    with pytest.raises(ValueError) as err:
        replay_certificate(tree)
    assert str(err.value) == "child 0 is not the 0-smoothing"


@pytest.mark.parametrize("path, value", [
    (("det",), None), (("children",), None), (("reduced_pd",), None),
    (("crossing",), None), (("pd",), None), (("children", 1, "pd"), None),
    (("children", 0, "det"), None), (("children",), 5),
    (("children",), [1, 2]), (("children",), []),
    (("reduced_pd",), ["X[1,4,2,5]"]), (("pd",), 7),
    ((), [1, 2]), ((), "X[1,4,2,5]"),
    (("children", 0, "det"), True), (("det",), 3.0), (("crossing",), True),
    (None, "[" * 100000 + "]" * 100000),
], ids=["no-det", "no-children", "no-reduced-pd", "no-crossing", "no-pd",
        "no-child-pd", "no-leaf-det", "children-int", "children-ints",
        "children-empty", "reduced-pd-list", "pd-int", "array", "string",
        "leaf-det-true", "det-float", "crossing-true", "nested-too-deep"])
def test_malformed_certificate_is_value_error(path, value):
    # value None deletes the key at path; an empty path replaces the
    # tree; path None makes value the JSON text, which only from_json reads
    if path is None:
        text = value
    else:
        tree = json.loads(TREFOIL_CERTIFICATE)
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


def _shared_closure():
    # an alternating 3-braid closure whose certificate repeats subtrees
    return braid_closure([1, -2] * 4, 3)


def _internal_nodes(tree):
    if tree.get("leaf"):
        return
    yield tree
    for kid in tree["children"]:
        yield from _internal_nodes(kid)


def _near_shared_closure():
    # a near-alternating 4-braid closure whose certificate repeats both
    # alternating and non-alternating subtrees
    return braid_closure([2, 1, 1, 3, 1, -3, 3, 1, 1, 2, 3], 4)


def _spy(monkeypatch, owner, attr):
    """Record the PD text of the first argument of every call."""
    calls = []
    fn = getattr(owner, attr)

    def counting(d, *args):
        calls.append(d.render())
        return fn(d, *args)

    monkeypatch.setattr(owner, attr, counting)
    return calls


def test_replay_checks_each_distinct_node_once(monkeypatch):
    # each distinct node is smoothed both ways at its crossing, once; an
    # all-alternating tree reads no black graph
    cert = certify(_shared_closure())
    keys = [n["reduced_pd"] for n in _internal_nodes(cert.tree)]
    assert len(keys) > len(set(keys))
    smoothed = _spy(monkeypatch, Diagram, "smooth")
    graphs = _spy(monkeypatch, qalt.qa, "checkerboard")
    assert replay_certificate(Certificate.from_json(cert.to_json()))
    assert sorted(smoothed) == sorted(2 * list(set(keys)))
    assert graphs == []


def test_replay_reads_each_distinct_non_alternating_black_graph_once(
        monkeypatch):
    cert = certify(_near_shared_closure())
    keys = [n["reduced_pd"] for n in _internal_nodes(cert.tree)]
    mixed = [k for k in keys if not parse_pd(k).is_alternating()]
    assert len(mixed) > len(set(mixed))
    assert len(keys) - len(mixed) > len(set(keys) - set(mixed)) > 0
    smoothed = _spy(monkeypatch, Diagram, "smooth")
    graphs = _spy(monkeypatch, qalt.qa, "checkerboard")
    assert replay_certificate(Certificate.from_json(cert.to_json()))
    assert sorted(smoothed) == sorted(2 * list(set(keys)))
    assert sorted(graphs) == sorted(set(mixed))


def test_certify_reads_black_graphs_of_non_alternating_nodes_only(
        monkeypatch):
    graphs = _spy(monkeypatch, qalt.qa, "checkerboard")
    assert isinstance(certify(_shared_closure()), Certificate)
    assert graphs == []
    assert isinstance(certify(_near_shared_closure()), Certificate)
    assert graphs
    assert not any(parse_pd(pd).is_alternating() for pd in graphs)


def test_replay_reduces_each_distinct_node_once(monkeypatch):
    tree = json.loads(certify(_shared_closure()).to_json())
    texts = {n["pd"] for n in _internal_nodes(tree)}
    assert len(list(_internal_nodes(tree))) > len(texts)
    wanted = []
    reduced = qalt.qa._reduced

    def counting(d, want):
        wanted.append(want)
        return reduced(d, want)

    monkeypatch.setattr("qalt.qa._reduced", counting)
    assert replay_certificate(tree)
    assert len(wanted) == len(texts)


def test_replay_rejects_tampering_inside_a_shared_copy():
    tree = json.loads(certify(_shared_closure()).to_json())
    seen = set()
    for node in _internal_nodes(tree):
        inner = list(_internal_nodes(node))[1:]
        if node["reduced_pd"] in seen and inner:
            target = inner[-1]
            break
        seen.add(node["reduced_pd"])
    else:
        pytest.fail("no repeated subtree with an internal node below it")
    det = target["det"]
    target["det"] = det + 1
    with pytest.raises(ValueError) as err:
        replay_certificate(tree)
    assert str(err.value) == "stored det %d != %d" % (det + 1, det)


def _nodes_at(tree, path=()):
    """(path, node) for every node, the path as keys from the root."""
    yield path, tree
    if not tree.get("leaf"):
        for r, kid in enumerate(tree["children"]):
            yield from _nodes_at(kid, path + ("children", r))


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


def test_replay_rejects_single_edits_of_an_alternating_certificate():
    # every node of an all-alternating tree, one edit at a time: a det
    # that is not the sum of the children's, a leaf det, a crossing
    # whose smoothings are not the children, swapped children
    text = certify(_shared_closure()).to_json()
    edits = collections.Counter()
    for path, node in _nodes_at(json.loads(text)):
        det = node["det"]
        if node.get("leaf"):
            assert (_replay_error(text, path, lambda n: n.update(det=2))
                    == "leaf with det != 1")
            edits["leaf"] += 1
            continue
        assert (_replay_error(text, path, lambda n: n.update(det=det + 1))
                == "stored det %d != %d" % (det + 1, det))
        s = parse_pd(node["reduced_pd"])
        other = (node["crossing"] + 1) % len(s.crossings)
        kids = [kid["pd"] for kid in node["children"]]
        want = next(("child %d is not the %d-smoothing" % (r, r)
                     for r in (0, 1)
                     if s.smooth(other, r).render() != kids[r]), None)
        assert (_replay_error(text, path,
                              lambda n: n.update(crossing=other)) == want)
        edits["crossing"] += want is not None
        if kids[0] != kids[1]:
            assert (_replay_error(text, path,
                                  lambda n: n["children"].reverse())
                    == "child 0 is not the 0-smoothing")
            edits["swap"] += 1
    assert min(edits.values()) >= 20, edits


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
        replay_certificate(Certificate(root=cert.root, tree=bad))


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
            assert not g.is_loop(c) and not g.is_isthmus(c)
            s = g.edges[c][2]
            part0 = gamma(g.delete(c)).shift2(-2 * s)
            part1 = gamma(g.contract(c)).shift2(2 * s)
            whole = gamma(g)
            assert part0 + part1 == whole
            for e2 in set(dict(part0.items2())) | set(dict(part1.items2())):
                a = part0.coeff2(e2)
                b = part1.coeff2(e2)
                assert abs(a + b) == abs(a) + abs(b), (e.name, c, e2)


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
    assert kv.obstruction.status == NOTQA
    assert "gap" in kv.obstruction.rule_ids()
    agree = kanenobu_obstruction(0, 0)
    assert agree.agrees is True


def test_kanenobu_contiguous_band():
    for s in (-5, -4, 4, 5):
        v = kanenobu_jones(s, 0)
        support = sorted(e2 for e2, _ in v.items2())
        lo, hi = support[0], support[-1]
        assert support == list(range(lo, hi + 2, 2))

import hashlib
import logging
import random

import pytest
from conftest import braid_closure, grid_diagram, pretzel, pretzel_cases
from oracles import (SameComponent, bracket_gap_check, component_map,
                     skein_check)

import qalt.bracket
from qalt import corpus
from qalt.bracket import (BracketResult, bracket_result, bracket_state_sum,
                          determinant, jones, kauffman_bracket)
from qalt.diagram import (Diagram, EmptyDiagram, InvalidCrossing, NoEmbedding,
                          parse_pd)
from qalt.laurent import HalfLaurent, analyze
from qalt.tait import checkerboard, gamma, goeritz_det


def hl(*pairs):
    return HalfLaurent({2 * e: c for e, c in pairs})


def half(*pairs):
    # exponents given as doubled integers directly
    return HalfLaurent(dict(pairs))


HOPF_JONES = half((-5, -1), (-1, -1))
TREFOIL_JONES = hl((-4, -1), (-3, 1), (-1, 1))
FIG8_JONES = hl((-2, 1), (-1, -1), (0, 1), (1, -1), (2, 1))


def test_bracket_base_cases():
    assert kauffman_bracket(corpus.unknot()) == HalfLaurent.one()
    assert kauffman_bracket(Diagram((), 2)) == hl((-2, -1), (2, -1))
    with pytest.raises(EmptyDiagram):
        kauffman_bracket(Diagram((), 0))


def test_bracket_curls():
    assert kauffman_bracket(corpus.curl()).render("A") == "-A^3"
    assert kauffman_bracket(parse_pd("X[2,1,1,2]")).render("A") == "-A^(-3)"


def test_bracket_corpus_oracles():
    assert kauffman_bracket(corpus.hopf()) == half((-8, -1), (8, -1))
    assert (kauffman_bracket(corpus.trefoil())
            == half((-10, -1), (6, -1), (14, 1)))


def test_bracket_routes_agree_on_corpus():
    for entry in corpus.entries():
        d = entry.diagram
        assert kauffman_bracket(d) == bracket_state_sum(d), entry.name


# Braid closures of 9-12 crossings beyond the corpus; the last is
# alternating.
BRAID_CLOSURES = [
    "X[1,3,2,4] X[2,5,1,4] X[6,18,3,17] X[13,12,14,7] X[14,10,15,9] "
    "X[15,8,16,9] X[16,6,17,5] X[18,8,13,7] X[19,11,20,12] X[20,11,19,10]",
    "X[2,6,5,1] X[4,8,7,3] X[7,8,10,9] X[6,9,12,11] X[12,14,13,11] "
    "X[5,13,16,15] X[10,18,17,14] X[17,18,4,3] X[15,16,2,1]",
    "X[3,5,4,2] X[5,7,6,4] X[7,9,8,6] X[8,9,11,10] X[1,10,13,12] "
    "X[11,15,14,13] X[15,17,16,14] X[17,19,18,16] X[19,21,20,18] "
    "X[12,20,23,1] X[23,21,3,2]",
    "X[2,3,5,4] X[1,4,7,6] X[7,9,8,6] X[9,5,11,10] X[11,13,12,10] "
    "X[12,13,15,14] X[15,17,16,14] X[16,17,19,18] X[19,3,20,18] "
    "X[20,23,22,8] X[23,25,24,22] X[25,2,1,24]",
    "X[2,6,5,1] X[4,8,7,3] X[7,10,9,6] X[8,12,11,10] X[11,12,4,13] "
    "X[9,13,16,15] X[15,18,17,5] X[18,16,20,19] X[17,19,22,21] "
    "X[21,22,24,23] X[24,20,3,25] X[23,25,2,1]",
    "X[3,5,4,2] X[1,4,7,6] X[6,7,9,8] X[5,11,10,9] X[11,13,12,10] "
    "X[13,15,14,12] X[15,17,16,14] X[8,16,19,18] X[18,19,21,20] "
    "X[17,3,22,21] X[20,22,2,1]",
]


def _shuffled(d: Diagram) -> Diagram:
    # a fixed non-monotone renaming of every label
    labels = sorted({lab for t in d.crossings for lab in t})
    new = labels[1::2][::-1] + labels[::2]
    ren = dict(zip(labels, (3 * x + 1 for x in new)))
    return Diagram([tuple(ren[lab] for lab in t) for t in d.crossings])


# Corners of the frontier sweep: labels that meet twice at one
# crossing, paths with both ends at the next crossing, components that
# never touch, and label orders unrelated to the traversal.
EDGE_SHAPES = {
    "split-trefoil-hopf": parse_pd(
        "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3] X[7,10,8,9] X[9,8,10,7]"),
    "trefoil-free-loops-2": Diagram(corpus.trefoil().crossings, 2),
    "curl-0-3": parse_pd("X[2,1,1,2]"),
    "curl-0-1": parse_pd("X[1,1,2,2]"),
    "figure-eight-curl-1-2": parse_pd(
        "X[2,3,3,4] X[4,9,5,10] X[6,2,7,1] X[8,5,9,6] X[10,8,1,7]"),
    "trefoil-curls-0-1-2-3": parse_pd(
        "X[1,2,2,3] X[3,5,4,4] X[5,8,6,9] X[7,10,8,1] X[9,6,10,7]"),
    "torus-2-7-shuffled": _shuffled(corpus.torus(7)),
    "figure-eight-shuffled": _shuffled(corpus.figure_eight()),
}


@pytest.mark.parametrize(
    "d", [parse_pd(pd) for pd in BRAID_CLOSURES] + list(EDGE_SHAPES.values()),
    ids=BRAID_CLOSURES + list(EDGE_SHAPES))
def test_bracket_routes_agree_on_braid_closures(d):
    assert kauffman_bracket(d) == bracket_state_sum(d)


def test_bracket_matches_state_sum_on_random_codes():
    # random pairings of the ports, most of them not planar: the sweep's
    # loop bounds and slots must not assume a planar code
    rng = random.Random(7)
    checked = 0
    while checked < 150:
        n = rng.randint(1, 7)
        labels = [k // 2 + 1 for k in range(4 * n)]
        rng.shuffle(labels)
        try:
            d = Diagram([labels[4 * c:4 * c + 4] for c in range(n)],
                        rng.randint(0, 2))
        except ValueError:
            continue
        assert kauffman_bracket(d) == bracket_state_sum(d), d
        checked += 1


def test_bracket_routes_agree_on_grid_diagrams():
    # grid diagrams are not braid closures: curls, over-only components
    # and strands that run against each other. On the connected ones of
    # 4-12 crossings, the sweep equals the state sum and |V(-1)|
    # equals the Goeritz determinant
    rng = random.Random(20261020)
    checked = 0
    while checked < 120:
        d = grid_diagram(rng, rng.randint(5, 9))
        if not 4 <= len(d.crossings) <= 12 or not d.is_connected():
            continue
        assert kauffman_bracket(d) == bracket_state_sum(d), d
        assert determinant(d) == goeritz_det(checkerboard(d)[0]), d
        checked += 1


def test_bracket_of_relabelled_and_split_diagrams():
    assert (kauffman_bracket(EDGE_SHAPES["torus-2-7-shuffled"])
            == kauffman_bracket(corpus.torus(7)))
    assert (kauffman_bracket(EDGE_SHAPES["figure-eight-shuffled"])
            == kauffman_bracket(corpus.figure_eight()))
    delta = hl((-2, -1), (2, -1))
    assert (kauffman_bracket(EDGE_SHAPES["split-trefoil-hopf"])
            == kauffman_bracket(corpus.trefoil())
            * kauffman_bracket(corpus.hopf()) * delta)
    assert (kauffman_bracket(EDGE_SHAPES["trefoil-free-loops-2"])
            == kauffman_bracket(corpus.trefoil()) * delta * delta)


@pytest.mark.hashseed
def test_bracket_logs_frontier(caplog):
    with caplog.at_level(logging.DEBUG, logger="qalt.bracket"):
        kauffman_bracket(corpus.trefoil())
        kauffman_bracket(braid_closure([1, -2, 3, -4] * 3, 5))
        kauffman_bracket(EDGE_SHAPES["split-trefoil-hopf"])
    msgs = [r.getMessage() for r in caplog.records if r.name == "qalt.bracket"]
    assert msgs == [
        "kauffman_bracket: 3 crossings, frontier width 4, peak states 2",
        "kauffman_bracket: 12 crossings, frontier width 6, peak states 5",
        "kauffman_bracket: 5 crossings, frontier width 4, peak states 2"]


# golden digest of the sweep, on inputs past the state sum's reach:
# braid closures of 8-40 crossings, split unions with free loops, and
# runs of disjoint curls, whose delta^(k-1) carries the largest
# coefficients a diagram of k crossings can have

CURL_FORMS = ((1, 1, 2, 2), (2, 1, 1, 2))


def _relabelled(d: Diagram, shift: int) -> list:
    return [tuple(lab + shift for lab in t) for t in d.crossings]


def _curls(k: int) -> Diagram:
    return Diagram([tuple(lab + 2 * i for lab in CURL_FORMS[i % 2])
                    for i in range(k)])


def _digest_corpus() -> list:
    rng = random.Random(20261019)
    closures = []
    for family in ("random", "alternating", "near"):
        for _ in range(16):
            strands = rng.randint(3, 6)
            letters = [rng.randint(1, strands - 1)
                       for _ in range(rng.randint(8, 40))]
            if family == "random":
                word = [g * rng.choice((1, -1)) for g in letters]
            else:
                word = [g if g % 2 else -g for g in letters]
            if family == "near":
                for j in rng.sample(range(len(word)), rng.randint(1, 2)):
                    word[j] = -word[j]
            closures.append(braid_closure(word, strands))
    unions = []
    for _ in range(12):
        a, b = rng.sample(closures, 2)
        shift = max(lab for t in a.crossings for lab in t)
        unions.append(Diagram(a.crossings + tuple(_relabelled(b, shift)),
                              rng.randint(0, 3)))
    return closures + unions + [_curls(k) for k in range(1, 41)]


BRACKET_DIGEST = (
    "dbb2e0cf906425c471041bef495e8a19a99655379371e805b45079d17c7b1d12")


@pytest.mark.hashseed
def test_bracket_golden_digest():
    h = hashlib.sha256()
    for d in _digest_corpus():
        h.update(kauffman_bracket(d).render("A").encode() + b"\n")
    assert h.hexdigest() == BRACKET_DIGEST


# golden digest of the sweep's plan, not its outputs: per step the
# slots of the crossing taken and their ends mask, then the slot count,
# the frontier width and the coefficient bound that sets W. The order
# of the crossings shows through the slots and masks of each step, so
# a rewrite of the sweep that moves the frontier or W fails here

SWEEP_DIGEST = (
    "840328b10dfbe49aa405ae9116f8ff589bdf825fc7bb7078e979a8b13d83bf13")


def _sweep_corpus() -> list:
    # the closures, unions and curls of the bracket digest, grid
    # diagrams, the pretzels, and random port pairings, most of them
    # not planar
    rng = random.Random(20261020)
    grids = [grid_diagram(rng, rng.randint(5, 9)) for _ in range(40)]
    pretzels = [pretzel(*columns, -q) for columns, q in pretzel_cases()]
    codes = []
    while len(codes) < 60:
        n = rng.randint(1, 9)
        labels = [k // 2 + 1 for k in range(4 * n)]
        rng.shuffle(labels)
        try:
            codes.append(Diagram([labels[4 * c:4 * c + 4]
                                  for c in range(n)]))
        except ValueError:
            continue
    return _digest_corpus() + grids + pretzels + codes


def test_sweep_plan_golden_digest():
    h = hashlib.sha256()
    for d in _sweep_corpus():
        steps, size, width, bound = qalt.bracket._sweep(d)
        plan = [[list(slots), mask] for slots, mask in steps]
        h.update(repr((plan, size, width, bound)).encode() + b"\n")
    assert h.hexdigest() == SWEEP_DIGEST


def test_state_sum_cap():
    with pytest.raises(ValueError):
        bracket_state_sum(corpus.torus(17))


def test_jones_corpus_oracles():
    assert jones(corpus.unknot()) == HalfLaurent.one()
    assert jones(corpus.curl()) == HalfLaurent.one()
    assert jones(corpus.hopf()) == HOPF_JONES
    assert jones(corpus.trefoil()) == TREFOIL_JONES
    assert jones(corpus.figure_eight()) == FIG8_JONES
    assert jones(corpus.hopf_hopf()) == hl((-5, 1), (-3, 2), (-1, 1))
    assert (jones(corpus.hopf_trefoil())
            == half((-13, 1), (-11, -1), (-9, 1), (-7, -2), (-3, -1)))


def test_jones_on_split_diagram():
    two = Diagram((), 2)
    assert jones(two) == half((-1, -1), (1, -1))
    assert determinant(two) == 0


def test_determinant_corpus():
    got = [determinant(e.diagram) for e in corpus.entries()]
    want = [e.det for e in corpus.entries()]
    assert got == want


def test_determinant_matches_goeritz():
    for entry in corpus.entries():
        d = entry.diagram
        if not d.is_connected():
            continue
        g, _ = checkerboard(d)
        assert determinant(d) == goeritz_det(g), entry.name


def test_gamma_matches_bracket_up_to_monomial():
    from qalt.laurent import monomial_quotient
    for d in (corpus.curl(), corpus.hopf(), corpus.trefoil(),
              corpus.figure_eight(), corpus.torus(5)):
        g, _ = checkerboard(d)
        q = monomial_quotient(kauffman_bracket(d), gamma(g))
        assert q == (1, 0)


def test_jones_invariant_under_simplify():
    for entry in corpus.entries():
        d = entry.diagram
        assert jones(d.simplify()) == jones(d), entry.name


def test_jones_multiplicative_under_connected_sum():
    pairs = [(corpus.hopf(), corpus.hopf()),
             (corpus.hopf(), corpus.trefoil()),
             (corpus.trefoil(), corpus.figure_eight())]
    for a, b in pairs:
        assert jones(a.connected_sum(b)) == jones(a) * jones(b)


def test_jones_mirror_inverts_t():
    for d in (corpus.hopf(), corpus.trefoil(), corpus.figure_eight(),
              corpus.torus(5)):
        v = jones(d)
        vm = jones(d.mirror())
        assert vm == HalfLaurent({-e2: c for e2, c in v.items2()})


def test_bracket_mod4_support_and_mod8_alternation():
    for entry in corpus.entries():
        b = kauffman_bracket(entry.diagram)
        exps = [e2 for e2, _ in b.items2()]
        assert len({e % 8 for e in exps}) == 1, entry.name
        assert analyze(b, step2=8).alternating, entry.name


def test_writhe_normalization_definition():
    for d in (corpus.hopf(), corpus.trefoil(), corpus.curl()):
        w = d.writhe()
        b = kauffman_bracket(d).shift2(-6 * w)
        if w % 2:
            b = -b
        v = jones(d)
        back = HalfLaurent({-4 * e2: c for e2, c in v.items2()})
        # t^(1/2) = A^(-2): doubled t-exponent k maps to doubled A-exponent -4k
        assert back == b


def test_skein_check_all_corpus_crossings():
    for entry in corpus.entries():
        d = entry.diagram
        for c in range(len(d.crossings)):
            assert skein_check(d, c), (entry.name, c)


def test_skein_bookkeeping_positive_crossing():
    d = corpus.torus(3).mirror()  # right trefoil: all positive
    assert d.sign(0) == 1
    x = sum(1 for c in range(3) if d.sign(c) < 0)
    l0 = d.smooth(0, 0)
    l1 = d.smooth(0, 1)
    x0 = sum(1 for c in range(len(l0.crossings)) if l0.sign(c) < 0)
    x1 = sum(1 for c in range(len(l1.crossings)) if l1.sign(c) < 0)
    e = x1 - x
    assert x0 == x  # oriented resolution keeps the signs
    assert e == 2


def test_skein_bookkeeping_negative_crossing():
    d = corpus.trefoil()
    assert d.sign(0) == -1
    x = 3
    l1 = d.smooth(0, 1)
    x1 = sum(1 for c in range(len(l1.crossings)) if l1.sign(c) < 0)
    assert x1 == x - 1  # oriented resolution drops the negative crossing
    l0 = d.smooth(0, 0)
    x0 = sum(1 for c in range(len(l0.crossings)) if l0.sign(c) < 0)
    assert x0 == 0  # reorientation turns the remaining pair positive
    assert x0 - x + 1 == -2  # e for this diagram


def test_bracket_result_fields(monkeypatch):
    calls = []
    inner = qalt.bracket.kauffman_bracket

    def counted(d):
        calls.append(d)
        return inner(d)

    for entry in corpus.entries():
        d = entry.diagram
        want = (inner(d), jones(d), determinant(d), d.writhe())
        calls.clear()
        monkeypatch.setattr(qalt.bracket, "kauffman_bracket", counted)
        r = bracket_result(d)
        monkeypatch.undo()
        assert isinstance(r, BracketResult)
        assert (r.bracket, r.jones, r.determinant, r.writhe) == want, \
            entry.name
        assert r.determinant == entry.det, entry.name
        assert len(calls) == 1, entry.name
    assert bracket_result(corpus.figure_eight()).jones == FIG8_JONES
    with pytest.raises(EmptyDiagram, match="no Jones polynomial"):
        bracket_result(Diagram((), 0))


def test_jones_of_a_code_with_no_planar_embedding_raises():
    # such a code has a bracket, but no link has its Jones polynomial:
    # most give an |f(-1)| that is no integer, the rest a polynomial of
    # no link
    d = parse_pd("X[2,3,4,1] X[4,1,3,2]")
    for f in (jones, determinant, bracket_result):
        with pytest.raises(NoEmbedding, match="not planar"):
            f(d)
    rng = random.Random(20261020)
    refused = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        labels = [k // 2 + 1 for k in range(4 * n)]
        rng.shuffle(labels)
        try:
            d = Diagram([labels[4 * c:4 * c + 4] for c in range(n)])
        except ValueError:
            continue
        try:
            Diagram(d.crossings).check_planar()
        except NoEmbedding:
            refused += 1
            with pytest.raises(NoEmbedding):
                jones(d)
        else:
            assert determinant(d) == jones(d).abs_at_minus_one()
    assert refused > 50


def test_bracket_gap_check_hopf_is_seven():
    d = corpus.hopf()
    assert bracket_gap_check(d, 0) == 7
    assert bracket_gap_check(d, 1) == 7
    assert jones(d).breadth2() == 4


def test_bracket_gap_check_torus_links():
    for n in (4, 6):
        d = corpus.torus(n)
        for c in range(n):
            assert bracket_gap_check(d, c) == 3


def test_bracket_gap_check_same_component_raises():
    d = corpus.trefoil()
    with pytest.raises(SameComponent):
        bracket_gap_check(d, 0)


def test_bracket_gap_check_rejects_a_bad_crossing_first():
    # checked before the crossing is read: no IndexError, TypeError or
    # SameComponent from a crossing that is not there
    for d, c in ((corpus.hopf(), 2), (corpus.hopf(), 1.0),
                 (corpus.hopf(), -1), (corpus.trefoil(), -1)):
        with pytest.raises(InvalidCrossing, match="no crossing"):
            bracket_gap_check(d, c)


def test_bracket_gap_check_overlap_is_none():
    # connected sum of two Hopf links: smoothing an inter-component
    # crossing leaves wide polynomials whose supports overlap
    d = corpus.hopf_hopf()
    t = d.crossings
    cmap = component_map(d)
    inter = [c for c in range(len(t)) if cmap[t[c][0]] != cmap[t[c][1]]]
    assert inter
    vals = {bracket_gap_check(d, c) for c in inter}
    assert vals <= {None, 3, 7}

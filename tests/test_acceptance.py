"""Acceptance suite: one test per criterion, one printed verdict line each.

Everything is exact integer/Laurent arithmetic; the only tolerances are
the wall-clock budgets stated inline (10 s, 30 s, 1 s).
"""

import random
import time

from qalt import corpus
from qalt.bracket import (bracket_state_sum, determinant, jones,
                          kauffman_bracket)
from qalt.diagram import Diagram
from qalt.laurent import HalfLaurent, analyze, monomial_quotient
from qalt.qa import (Certificate, certify, kanenobu_jones,
                     kanenobu_obstruction, obstruct, replay_certificate,
                     INCONCLUSIVE, NOTQA)
from qalt.tait import checkerboard, gamma, goeritz_det

from conftest import random_alternating_graph
from oracles import (abs_at_primitive_eighth_root, bracket_gap_check,
                     component_map, gamma_skein_check, is_isthmus, is_loop,
                     reorder, skein_check)

DELTA = HalfLaurent({-4: -1, 4: -1})


def _tait_graphs():
    return [(e.name, checkerboard(e.diagram)[0]) for e in corpus.entries()]


def test_criterion_01_bracket_axioms():
    t0 = time.monotonic()
    # relation (1): the unknot's bracket is 1
    assert kauffman_bracket(corpus.unknot()) == HalfLaurent.one()
    for e in corpus.entries():
        d = e.diagram
        assert len(d.crossings) <= 10, e.name
        b = kauffman_bracket(d)
        # relation (2): a split extra circle multiplies by -A^(-2)-A^2
        with_circle = Diagram(d.crossings, d.free_loops + 1)
        assert kauffman_bracket(with_circle) == b * DELTA, e.name
        # relation (3): the smoothing expansion at every crossing
        for c in range(len(d.crossings)):
            l0 = kauffman_bracket(d.smooth(c, 0))
            l1 = kauffman_bracket(d.smooth(c, 1))
            assert b == l0.shift2(2) + l1.shift2(-2), (e.name, c)
        # independent route agrees
        assert bracket_state_sum(d) == b, e.name
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print("CRITERION 1 PASS: bracket axioms at every corpus crossing "
          "(%.2fs)" % elapsed)


def test_criterion_02_determinant_triple_agreement():
    for e in corpus.entries():
        d = e.diagram
        via_jones = determinant(d)
        g, _ = checkerboard(d)
        via_gamma = abs_at_primitive_eighth_root(gamma(g))
        via_goeritz = goeritz_det(g)
        assert via_jones == via_gamma == via_goeritz == e.det, (
            e.name, via_jones, via_gamma, via_goeritz)
    print("CRITERION 2 PASS: |V(-1)| == |Gamma(zeta_8)| == Goeritz "
          "on the full corpus")


def test_criterion_03_gamma_structure():
    rng = random.Random(2024)
    graphs = _tait_graphs()
    graphs += [("random-%d" % i, random_alternating_graph(rng, max_edges=10))
               for i in range(20)]
    checked_skein = 0
    for name, g in graphs:
        assert len(g.edges) <= 10, name
        poly = gamma(g)
        # exponents in one class mod 4 (doubled: mod 8)
        exps = [e2 for e2, _ in poly.items2()]
        assert len({e % 8 for e in exps}) == 1, name
        # sign alternation on the mod-4 exponent lattice
        assert analyze(poly, step2=8).alternating, name
        # edge-order independence
        perm = list(range(len(g.edges)))
        rng.shuffle(perm)
        assert gamma(reorder(g, perm)) == poly, name
        # deletion-contraction identity, edge moved last
        for i in range(len(g.edges)):
            if is_loop(g, i) or is_isthmus(g, i):
                continue
            order = [j for j in range(len(g.edges)) if j != i] + [i]
            assert gamma_skein_check(reorder(g, order), len(g.edges) - 1), (
                name, i)
            checked_skein += 1
    assert checked_skein > 0
    print("CRITERION 3 PASS: Gamma mod-4 support, mod-8 alternation, "
          "skein identity (%d edges), order independence on %d graphs"
          % (checked_skein, len(graphs)))


def test_criterion_04_gamma_bracket_single_monomial_quotient():
    quotients = {}
    for e in corpus.entries():
        g, _ = checkerboard(e.diagram)
        q = monomial_quotient(kauffman_bracket(e.diagram), gamma(g))
        assert q is not None, e.name
        quotients[e.name] = q
    print("CRITERION 4 PASS: <L> = sign * A^(k/2) * Gamma_G with "
          "(sign, k) per entry: %s" % quotients)


def test_criterion_05_gap_counts():
    reports = {e.name: analyze(jones(e.diagram), step2=2)
               for e in corpus.entries()}
    assert reports["figure_eight"].gaps == ()
    for name in ("hopf", "trefoil", "torus_2_4", "torus_2_5",
                 "torus_2_6", "torus_2_7"):
        assert len(reports[name].gaps) == 1, name
        assert reports[name].gaps[0][1] == 1, name
    assert len(reports["hopf_hopf"].gaps) == 2
    assert reports["unknot"].gaps == () and reports["curl"].gaps == ()
    print("CRITERION 5 PASS: gap counts 0 (figure-eight), one length-1 "
          "(trefoil and torus), two (Hopf#Hopf)")


def test_criterion_06_breadth_versus_determinant():
    equality_names = set()
    for e in corpus.entries():
        v = jones(e.diagram)
        breadth2 = 0 if len(v.items2()) == 1 else v.breadth2()
        det = determinant(e.diagram)
        assert breadth2 <= 2 * det, (e.name, breadth2, det)
        if breadth2 == 2 * det:
            equality_names.add(e.name)
    assert equality_names == {"hopf", "trefoil", "torus_2_4", "torus_2_5",
                              "torus_2_6", "torus_2_7", "hopf_hopf"}
    print("CRITERION 6 PASS: breadth <= det everywhere; equality exactly "
          "on torus diagrams and the Hopf connected sum")


def test_criterion_07_certification():
    t0 = time.monotonic()
    targets = [corpus.unknot(), corpus.hopf(), corpus.trefoil(),
               corpus.figure_eight()] + [corpus.torus(n)
                                         for n in range(2, 8)]
    for d in targets:
        cert = certify(d)
        assert isinstance(cert, Certificate), d.render()
        assert replay_certificate(cert)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print("CRITERION 7 PASS: certificates for unknot, Hopf, trefoil, "
          "figure-eight, torus n<=7, all replayed (%.2fs)" % elapsed)


def test_criterion_08_oriented_skein():
    checked = 0
    for e in corpus.entries():
        d = e.diagram
        for c in range(len(d.crossings)):
            assert skein_check(d, c), (e.name, c)
            checked += 1
    print("CRITERION 8 PASS: oriented skein identity at all %d corpus "
          "crossings" % checked)


def test_criterion_09_kanenobu():
    t0 = time.monotonic()
    for p in range(-10, 11):
        for q in range(-10, 11):
            assert kanenobu_jones(p, q).abs_at_minus_one() == 25, (p, q)
    assert kanenobu_obstruction(10, 9).status == NOTQA
    assert kanenobu_obstruction(4, 3).status == NOTQA
    assert kanenobu_obstruction(0, 0).status == INCONCLUSIVE
    # the |p+q| = 6 disagreement between the stated criterion and the
    # gap battery is surfaced through the agrees flag
    edge = kanenobu_obstruction(3, 3)
    assert edge.status == INCONCLUSIVE
    assert edge.agrees is False
    assert obstruct(kanenobu_jones(3, 3), 25, prime=True).status == NOTQA
    assert kanenobu_obstruction(0, 0).agrees is True
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print("CRITERION 9 PASS: det 25 on the grid, NotQA/Inconclusive cases, "
          "|p+q|=6 discrepancy reported (%.2fs)" % elapsed)


def test_criterion_10_two_component_gap_values():
    seen = set()
    for e in corpus.entries():
        d = e.diagram
        if d.component_count != 2:
            continue
        breadth2 = analyze(jones(d), step2=2).breadth2
        cmap = component_map(d)
        inter = [c for c in range(len(d.crossings))
                 if cmap[d.crossings[c][0]] != cmap[d.crossings[c][1]]]
        assert inter, e.name
        for c in inter:
            val = bracket_gap_check(d, c)
            assert val in (None, 3, 7), (e.name, c, val)
            if val == 7:
                assert breadth2 == 4, e.name
            seen.add((e.name, val))
    assert ("hopf", 7) in seen
    assert any(val == 3 for _, val in seen)
    print("CRITERION 10 PASS: inter-component gap values in {None, 3, 7}; "
          "7 only at Jones breadth 2: %s" % sorted(seen, key=str))

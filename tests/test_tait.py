import random
import re
import time
import tracemalloc

import pytest

from qalt import corpus
from qalt.bracket import determinant, kauffman_bracket
from qalt.diagram import DisconnectedDiagram, parse_pd
from qalt.laurent import HalfLaurent, analyze, monomial_quotient
from qalt.tait import (SignedPlanarGraph, activity, black_graph,
                       checkerboard, gamma, goeritz_det, parse_edgelist,
                       smoothing_dets, spanning_trees)

from conftest import (braid_closure, pretzel, pretzel_cases,
                      random_alternating_graph, random_connected_graph)
from oracles import (LoopOrIsthmus, contract, delete, gamma_skein_check,
                     is_isthmus, is_loop, kirchhoff_count, reorder, tutte,
                     tutte_check)


def hl(*pairs):
    return HalfLaurent({2 * e: c for e, c in pairs})


def test_checkerboard_curl():
    g, w = checkerboard(corpus.curl())
    assert g.vertex_count == 2 and g.edges == ((0, 1, -1),)
    assert w.vertex_count == 1 and w.edges == ((0, 0, 1),)


def test_checkerboard_hopf():
    g, w = checkerboard(corpus.hopf())
    assert g.vertex_count == 2
    assert sorted(s for _, _, s in g.edges) == [-1, -1]
    assert all(u != v for u, v, _ in g.edges)
    assert sorted(s for _, _, s in w.edges) == [1, 1]


def test_checkerboard_trefoil_is_negative_triangle():
    g, w = checkerboard(corpus.trefoil())
    assert g.vertex_count == 3 and len(g.edges) == 3
    assert all(s == -1 for _, _, s in g.edges)
    assert all(u != v for u, v, _ in g.edges)
    assert w.vertex_count == 2 and all(s == 1 for _, _, s in w.edges)


def test_checkerboard_unknot_gives_single_vertices():
    g, w = checkerboard(corpus.unknot())
    assert g.vertex_count == 1 and not g.edges
    assert gamma(g) == HalfLaurent.one()
    assert w.vertex_count == 1 and not w.edges


def test_checkerboard_rejects_disconnected():
    d = parse_pd("X[1,4,2,3] X[3,2,4,1] X[5,8,6,7] X[7,6,8,5]")
    with pytest.raises(DisconnectedDiagram):
        checkerboard(d)


def test_spanning_trees_and_kirchhoff_small():
    tri = SignedPlanarGraph(3, ((0, 1, 1), (1, 2, 1), (2, 0, 1)))
    trees = sorted(sorted(t) for t in spanning_trees(tri))
    assert trees == [[0, 1], [0, 2], [1, 2]]
    assert kirchhoff_count(tri) == 3
    # loops never enter a tree
    loopy = SignedPlanarGraph(2, ((0, 0, 1), (0, 1, -1)))
    assert list(spanning_trees(loopy)) == [frozenset({1})]


def test_gamma_of_a_long_path():
    # every edge of a path is in its one tree and active, weight -A^(-3);
    # tree enumeration as deep as the edge count stays off the call stack
    m = 1100
    g = SignedPlanarGraph(m + 1, tuple((i, i + 1, 1) for i in range(m)))
    assert gamma(g) == HalfLaurent({-6 * m: (-1) ** m})


def test_activity_two_cycle_table():
    g = SignedPlanarGraph(2, ((0, 1, 1), (0, 1, 1)))
    assert activity(g, frozenset({0}), 0) == "L"
    assert activity(g, frozenset({0}), 1) == "d"
    assert activity(g, frozenset({1}), 1) == "D"
    assert activity(g, frozenset({1}), 0) == "l"


def test_activity_negative_edges_get_bars():
    g = SignedPlanarGraph(2, ((0, 1, -1), (0, 1, -1)))
    assert activity(g, frozenset({0}), 0) == "Lbar"
    assert activity(g, frozenset({0}), 1) == "dbar"


def test_gamma_double_positive_two_cycle():
    g = SignedPlanarGraph(2, ((0, 1, 1), (0, 1, 1)))
    assert gamma(g) == hl((-4, -1), (4, -1))


def test_gamma_mixed_two_cycle_not_mod8_alternating():
    g = SignedPlanarGraph(2, ((0, 1, 1), (0, 1, -1)))
    gm = gamma(g)
    assert gm == hl((-2, -1), (2, -1))
    assert not analyze(gm, step2=8).alternating


def test_gamma_corpus_values():
    got = {name: gamma(checkerboard(d)[0]).render("A") for name, d in [
        ("curl", corpus.curl()),
        ("hopf", corpus.hopf()),
        ("trefoil", corpus.trefoil()),
        ("fig8", corpus.figure_eight()),
    ]}
    assert got == {
        "curl": "-A^3",
        "hopf": "-A^(-4) - A^4",
        "trefoil": "-A^(-5) - A^3 + A^7",
        "fig8": "A^(-8) - A^(-4) + 1 - A^4 + A^8",
    }


def _braid_closures(seed: int, count: int, alternating: bool):
    """Closures of braid words of 8-12 letters on 3-4 strands, each
    generator at least once so the closure is connected; alternating
    words take sigma_i positive for odd i and negative for even i,
    the others a random sign per letter."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.randint(3, 4)
        gens = list(range(1, strands))
        gens += [rng.randint(1, strands - 1)
                 for _ in range(rng.randint(8, 12) - len(gens))]
        rng.shuffle(gens)
        if alternating:
            word = [g if g % 2 else -g for g in gens]
        else:
            word = [rng.choice((1, -1)) * g for g in gens]
        out.append(braid_closure(word, strands))
    return out


def test_gamma_is_the_bracket_up_to_a_monomial_on_braid_closures():
    # Thistlethwaite's expansion against the frontier-sweep bracket: an
    # oracle for spanning_trees and activity beyond the corpus
    closures = (_braid_closures(5, 25, alternating=True)
                + _braid_closures(6, 25, alternating=False))
    for d in closures:
        assert len(d.crossings) >= 8
        q = monomial_quotient(gamma(black_graph(d)), kauffman_bracket(d))
        assert q is not None, d.crossings


def test_gamma_order_invariant():
    rng = random.Random(11)
    for _ in range(30):
        g = random_connected_graph(rng)
        base = gamma(g)
        perm = list(range(len(g.edges)))
        rng.shuffle(perm)
        assert gamma(reorder(g, perm)) == base


def test_tree_count_matches_kirchhoff_random():
    rng = random.Random(13)
    for _ in range(40):
        g = random_connected_graph(rng)
        assert sum(1 for _ in spanning_trees(g)) == kirchhoff_count(g)


def test_gamma_skein_check_basic():
    g = SignedPlanarGraph(2, ((0, 1, 1), (0, 1, 1)))
    assert gamma_skein_check(g, 1)
    gm = SignedPlanarGraph(2, ((0, 1, 1), (0, 1, -1)))
    assert gamma_skein_check(gm, 1)


def test_gamma_skein_check_random():
    rng = random.Random(17)
    done = 0
    while done < 25:
        g = random_connected_graph(rng)
        last = len(g.edges) - 1
        if last < 1 or is_loop(g, last) or is_isthmus(g, last):
            continue
        assert gamma_skein_check(g, last)
        done += 1


def test_gamma_skein_check_guards():
    g = SignedPlanarGraph(2, ((0, 1, 1), (0, 1, 1)))
    with pytest.raises(ValueError):
        gamma_skein_check(g, 0)
    isthmus = SignedPlanarGraph(2, ((0, 1, 1),))
    with pytest.raises(LoopOrIsthmus):
        gamma_skein_check(isthmus, 0)
    loop = SignedPlanarGraph(2, ((0, 1, 1), (1, 1, -1)))
    with pytest.raises(LoopOrIsthmus):
        gamma_skein_check(loop, 1)


def test_random_alternating_graphs_alternate_mod8():
    rng = random.Random(19)
    for _ in range(25):
        g = random_alternating_graph(rng)
        rep = analyze(gamma(g), step2=8)
        assert rep.alternating


def test_goeritz_corpus():
    vals = {}
    for name, d in [("unknot", corpus.unknot()), ("curl", corpus.curl()),
                    ("hopf", corpus.hopf()), ("trefoil", corpus.trefoil()),
                    ("fig8", corpus.figure_eight()),
                    ("t6", corpus.torus(6)), ("t7", corpus.torus(7))]:
        vals[name] = goeritz_det(checkerboard(d)[0])
    assert vals == {"unknot": 1, "curl": 1, "hopf": 2, "trefoil": 3,
                    "fig8": 5, "t6": 6, "t7": 7}


def test_goeritz_matches_dual():
    for d in (corpus.hopf(), corpus.trefoil(), corpus.figure_eight(),
              corpus.torus(5)):
        g, w = checkerboard(d)
        assert goeritz_det(g) == goeritz_det(w)


def test_tutte_triangle():
    g, _ = checkerboard(corpus.trefoil())
    assert tutte(g) == {(2, 0): 1, (1, 0): 1, (0, 1): 1}


def test_tutte_evaluations_on_random_multigraphs():
    # T(1,1) counts spanning trees and T(2,2) = 2^|E|, on multigraphs
    # with loops and parallel edges
    rng = random.Random(5)
    loops = 0
    for _ in range(60):
        g = random_connected_graph(rng)
        loops += any(is_loop(g, i) for i in range(len(g.edges)))
        t = tutte(g)
        assert sum(t.values()) == kirchhoff_count(g)
        assert (sum(c * 2 ** (i + j) for (i, j), c in t.items())
                == 2 ** len(g.edges))
    assert loops


def test_tutte_of_a_long_path():
    # every edge of a path is an isthmus; deletion-contraction as deep as
    # the edge count stays off the call stack
    m = 1200
    g = SignedPlanarGraph(m + 1, tuple((i, i + 1, 1) for i in range(m)))
    assert tutte(g) == {(m, 0): 1}


def _split_or_det(d):
    return goeritz_det(checkerboard(d)[0]) if d.is_connected() else 0


def _smoothing_cases():
    cases = [e.diagram for e in corpus.entries()
             if e.diagram.crossings and e.diagram.is_connected()]
    for curl in ("X[2,1,1,2]", "X[1,1,2,2]"):
        cases.append(parse_pd(curl))
        for base in (corpus.trefoil(), corpus.figure_eight()):
            cases.append(base.connected_sum(parse_pd(curl)))
            cases.append(parse_pd(curl).connected_sum(base))
    rng = random.Random(3)
    while len(cases) < 60:
        strands = rng.choice((3, 4))
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(6, 12))]
        d = braid_closure(word, strands)
        if d.is_connected():
            cases.append(d)
    return cases


def test_smoothing_dets_match_diagram_smoothings():
    loops = isthmi = 0
    for d in _smoothing_cases():
        g = checkerboard(d)[0]
        det, pairs = smoothing_dets(g)
        assert det == goeritz_det(g), d
        for c, got in zip(range(len(d.crossings)), pairs, strict=True):
            loops += is_loop(g, c)
            isthmi += is_isthmus(g, c)
            want = (_split_or_det(d.smooth(c, 0)),
                    _split_or_det(d.smooth(c, 1)))
            assert got == want, (d, c)
    assert loops and isthmi


def test_alternating_determinant_adds_over_connected_smoothings():
    # the rule certify and replay use at alternating nodes: the black
    # graph is one-signed, so its determinant is its spanning-tree count
    # and tau(G) = tau(G - e) + tau(G / e), where a loop or an isthmus,
    # a nugatory crossing, has one split smoothing, whose det is 0
    rng = random.Random(20261019)
    curls = (parse_pd("X[1,1,2,2]"), parse_pd("X[2,1,1,2]"))
    nugatory = proper = 0
    for _ in range(40):
        # each generator at least once, so the closure is connected; a
        # generator used once is a nugatory crossing
        strands = rng.randint(2, 4)
        gens = list(range(1, strands))
        gens += [rng.randint(1, strands - 1) for _ in range(rng.randint(2, 9))]
        rng.shuffle(gens)
        d = braid_closure([g if g % 2 else -g for g in gens], strands)
        for _ in range(rng.randint(0, 2)):
            d = d.connected_sum(rng.choice(curls))
        assert d.is_alternating() and d.is_connected()
        det, pairs = smoothing_dets(black_graph(d))
        assert det == determinant(d)
        for c, (det0, det1) in enumerate(pairs):
            assert det0 + det1 == det, (d, c)
            connected = all(d.smooth(c, r).is_connected() for r in (0, 1))
            assert (min(det0, det1) == 0) == (not connected), (d, c)
            nugatory += not connected
            proper += connected
    assert nugatory >= 40 and proper >= 200, (nugatory, proper)


def _reference_checkerboard(d):
    """(vertex count, edges) of the black and of the white graph, from
    faces() and the arcs' ports alone: faces colored by a search across
    arcs, the black class the larger one (on a tie, the class without
    face 0), vertices numbered in face order within each class, and
    crossing c's edge joining its corner faces of one class, positive
    when those are corners 1 and 3."""
    faces = d.faces()
    face_of = {port: fi for fi, face in enumerate(faces) for port in face}
    across = {fi: set() for fi in range(len(faces))}
    for p, q in enumerate(d._mate):
        p, q = (p >> 2, p & 3), (q >> 2, q & 3)
        across[face_of[p]].add(face_of[q])
        across[face_of[q]].add(face_of[p])
    color = {0: 0}
    stack = [0]
    while stack:
        f = stack.pop()
        for g in across[f]:
            if g not in color:
                color[g] = 1 - color[f]
                stack.append(g)
            assert color[g] != color[f]
    counts = [list(color.values()).count(k) for k in (0, 1)]
    black = 0 if counts[0] > counts[1] else 1
    index = {}
    for f in range(len(faces)):
        index[f] = sum(color[g] == color[f] for g in range(f))
    graphs = []
    for cls in (black, 1 - black):
        edges = []
        for c in range(len(d.crossings)):
            corner = [face_of[(c, (k + 1) % 4)] for k in range(4)]
            if color[corner[1]] == cls:
                edges.append((index[corner[1]], index[corner[3]], 1))
            else:
                edges.append((index[corner[0]], index[corner[2]], -1))
        graphs.append((counts[cls], tuple(edges)))
    return graphs


def test_black_graph_matches_a_reference_checkerboard():
    cases = _smoothing_cases()
    cases += [e for d in cases[:30] for c in range(len(d.crossings))
              for e in (d.smooth(c, 0), d.smooth(c, 1))
              if e.crossings and e.is_connected()]
    for d in cases:
        g, w = checkerboard(d)
        assert [(g.vertex_count, g.edges),
                (w.vertex_count, w.edges)] == _reference_checkerboard(d), d
        assert black_graph(d) == g


def _contract_delete_dets(g, e):
    # smoothing_dets by building both graphs
    merged = 0 if is_loop(g, e) else goeritz_det(contract(g, e))
    separated = 0 if is_isthmus(g, e) else goeritz_det(delete(g, e))
    return (merged, separated) if g.edges[e][2] > 0 else (separated, merged)


def test_smoothing_dets_match_contract_and_delete():
    rng = random.Random(11)
    graphs = [checkerboard(d)[0] for d in _smoothing_cases()]
    graphs += [random_connected_graph(rng) for _ in range(40)]
    graphs += [random_alternating_graph(rng) for _ in range(40)]
    graphs += [black_graph(pretzel(*cols, -q)) for cols, q in pretzel_cases()]
    loops = isthmi = 0
    for g in graphs:
        for e in range(len(g.edges)):
            loops += is_loop(g, e)
            isthmi += is_isthmus(g, e)
        assert list(smoothing_dets(g)[1]) == [
            _contract_delete_dets(g, e) for e in range(len(g.edges))], g
    assert loops and isthmi


def test_tutte_check_trefoil():
    g, _ = checkerboard(corpus.trefoil())
    jones = hl((-4, -1), (-3, 1), (-1, 1))
    res = tutte_check(g, jones)
    assert res is not None
    assert (res.sign, res.r2, res.mirrored) == (-1, -4, True)
    assert res.r * 2 == -4


def test_tutte_check_mismatch_is_none():
    g, _ = checkerboard(corpus.trefoil())
    assert tutte_check(g, hl((0, 1), (1, 1))) is None


def test_parse_edgelist():
    g = parse_edgelist("""
# sample
0 1 +
1 2 -
2 0 +
""")
    assert g.vertex_count == 3
    assert g.edges == ((0, 1, 1), (1, 2, -1), (2, 0, 1))
    forced = parse_edgelist("vertices 4\n0 1 +\n")
    assert forced.vertex_count == 4
    with pytest.raises(ValueError):
        parse_edgelist("0 1 *")
    for bad in ("vertices", "vertices 0", "vertices -2", "vertices 2 9",
                "vertices x", "vertices +3", "vertices 1_0",
                "vertices \u0661\u0662"):
        with pytest.raises(ValueError, match=re.escape(
                "want \"vertices N\" with N >= 1: %r" % bad)):
            parse_edgelist(bad + "\n0 1 +\n")
    # vertices are ASCII digit strings: no sign, no underscore, no digit
    # of another script, each refusal naming its line
    for bad in ("1_0 0 +", "+1 0 +", "0 +1 -", "-1 0 +", "0 \u0661 +",
                "x 1 +", "0 1.0 +", "0 \u00b2 +"):
        with pytest.raises(ValueError,
                           match=re.escape("bad edge line %r" % bad)):
            parse_edgelist("0 1 +\n" + bad + "\n")
    # "vertices N" is accepted only before every edge and only once
    for text, line in (("0 1 +\nvertices 3\nvertices 5\n", "vertices 3"),
                       ("vertices 3\nvertices 5\n", "vertices 5"),
                       ("# n\nvertices 3\n0 1 +\nvertices 4 # again\n",
                        "vertices 4 # again")):
        with pytest.raises(ValueError, match=re.escape(repr(line))):
            parse_edgelist(text)
    assert parse_edgelist("# n\n\nvertices 3\n0 1 +\n").vertex_count == 3


def test_contract_and_delete():
    g = SignedPlanarGraph(3, ((0, 1, 1), (1, 2, -1), (2, 0, 1)))
    assert delete(g, 1).edges == ((0, 1, 1), (2, 0, 1))
    c = contract(g, 1)
    assert c.vertex_count == 2
    assert c.edges == ((0, 1, 1), (1, 0, 1))
    loop = SignedPlanarGraph(1, ((0, 0, 1),))
    with pytest.raises(LoopOrIsthmus):
        contract(loop, 0)


def test_connectivity_of_a_huge_sparse_graph_allocates_nothing_per_vertex():
    # goeritz_det checks connectivity before it makes the n x n minor
    g = SignedPlanarGraph(10 ** 6, ((0, 1, 1),))
    t0 = time.monotonic()
    tracemalloc.start()
    try:
        assert not g.is_connected()
        with pytest.raises(ValueError, match="not connected"):
            goeritz_det(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert time.monotonic() - t0 < 1.0


def test_isthmus_and_loop_flags():
    g = SignedPlanarGraph(3, ((0, 1, 1), (1, 2, 1), (1, 1, -1)))
    assert is_isthmus(g, 0) and is_isthmus(g, 1)
    assert is_loop(g, 2) and not is_isthmus(g, 2)


def test_edge_indices_are_checked():
    # a negative or too large index names no edge, rather than counting
    # from the end or leaving the graph as it was
    g = SignedPlanarGraph(3, ((0, 1, 1), (1, 2, 1), (0, 1, -1)))
    black = black_graph(corpus.trefoil())
    tree = next(spanning_trees(g))
    for bad in (-1, 3, 9, 1.0, None):
        for call in (lambda i: is_loop(g, i), lambda i: is_isthmus(g, i),
                     lambda i: delete(g, i), lambda i: contract(g, i),
                     lambda i: activity(g, tree, i)):
            with pytest.raises(ValueError, match="no edge"):
                call(bad)
    assert list(smoothing_dets(black)[1])[2] == (1, 2)

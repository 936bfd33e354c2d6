"""Shared randomized generators for property tests.

random_alternating_graph builds graphs whose tree expansion provably
alternates mod 8: a series-parallel core whose edges all share one sign
(duplicating an edge in parallel or subdividing it preserves the
alternation pattern), then pendant edges and loops of either sign, each
of which multiplies the polynomial by a single monomial.

braid_closure turns a braid word into a PD diagram, for diagrams well
past the corpus.
"""

import random

from qalt.diagram import Diagram
from qalt.tait import SignedPlanarGraph


def braid_closure(word, strands: int) -> Diagram:
    """Closure of a braid word; letter +i is sigma_i, -i its inverse.

    Each letter takes the bottom labels bl, br of strands i, i+1 and
    gives them fresh top labels tl, tr: sigma_i is X[bl,br,tr,tl] and its
    inverse X[br,tr,tl,bl]. The closure renames each final top label to
    the bottom label of its strand."""
    cur = list(range(1, strands + 1))
    fresh = strands + 1
    out = []
    for g in word:
        i = abs(g) - 1
        bl, br = cur[i], cur[i + 1]
        tl, tr = fresh, fresh + 1
        fresh += 2
        out.append((bl, br, tr, tl) if g > 0 else (br, tr, tl, bl))
        cur[i], cur[i + 1] = tl, tr
    top_to_bottom = {cur[p]: p + 1 for p in range(strands)}
    return Diagram([tuple(top_to_bottom.get(x, x) for x in t) for t in out])


def random_alternating_graph(rng: random.Random, max_edges: int = 10):
    sign = rng.choice((1, -1))
    n = 2
    edges = [(0, 1, sign)]
    core_ops = rng.randint(0, max_edges - 4)
    for _ in range(core_ops):
        i = rng.randrange(len(edges))
        u, v, s = edges[i]
        if rng.random() < 0.5:
            edges.append((u, v, sign))
        else:
            edges[i] = (u, n, s)
            edges.append((n, v, sign))
            n += 1
    for _ in range(rng.randint(0, 3)):
        if len(edges) >= max_edges:
            break
        s = rng.choice((1, -1))
        if rng.random() < 0.5:
            edges.append((rng.randrange(n), n, s))
            n += 1
        else:
            w = rng.randrange(n)
            edges.append((w, w, s))
    rng.shuffle(edges)
    return SignedPlanarGraph(n, tuple(edges))


def random_connected_graph(rng: random.Random, max_extra: int = 4):
    """Connected multigraph, signs and loops unconstrained."""
    n = rng.randint(2, 5)
    edges = [(i, i + 1, rng.choice((1, -1))) for i in range(n - 1)]
    for _ in range(rng.randint(0, max_extra)):
        edges.append((rng.randrange(n), rng.randrange(n),
                      rng.choice((1, -1))))
    rng.shuffle(edges)
    return SignedPlanarGraph(n, tuple(edges))

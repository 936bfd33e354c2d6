"""Shared randomized generators for property tests.

random_alternating_graph builds graphs whose tree expansion provably
alternates mod 8: a series-parallel core whose edges all share one sign
(duplicating an edge in parallel or subdividing it preserves the
alternation pattern), then pendant edges and loops of either sign, each
of which multiplies the polynomial by a single monomial.

braid_closure turns a braid word into a PD diagram, for diagrams well
past the corpus; grid_diagram draws a random grid diagram, whose
diagrams are not braid closures: they have curls, split pieces, free
loops and components that only pass over.
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


def grid_diagram(rng: random.Random, n: int) -> Diagram:
    """A random grid diagram of size n as a PD diagram.

    Column i holds an X in row x_row[i] and an O in row o_row[i], and
    each row holds one X and one O. Each column runs from its X to its
    O, each row from its O to its X, and verticals cross over
    horizontals, at the points inside both segments. One walk per
    component numbers the arcs, a new label after every crossing it
    passes; a component that passes none is a free loop. Rows count up
    the page, and each crossing lists its arcs counterclockwise from the
    row entering it."""
    x_row = list(range(n))
    rng.shuffle(x_row)
    while True:
        o_row = list(range(n))
        rng.shuffle(o_row)
        if all(x != o for x, o in zip(x_row, o_row)):
            break
    x_col = {row: col for col, row in enumerate(x_row)}
    o_col = {row: col for col, row in enumerate(o_row)}

    def inside(k, a, b):
        return min(a, b) < k < max(a, b)

    # the passages of each crossing: (incoming, outgoing, direction)
    rows, cols = {}, {}
    free_loops = 0
    label = 0
    seen = set()
    for first in range(n):
        if first in seen:
            continue
        passages = []
        col = first
        while col not in seen:
            seen.add(col)
            # up or down the column, from its X to its O
            dy = 1 if o_row[col] > x_row[col] else -1
            for row in range(x_row[col] + dy, o_row[col], dy):
                if inside(col, o_col[row], x_col[row]):
                    passages.append((cols, (col, row), dy))
            # along the row, from its O to its X
            row = o_row[col]
            dx = 1 if x_col[row] > col else -1
            for k in range(col + dx, x_col[row], dx):
                if inside(row, x_row[k], o_row[k]):
                    passages.append((rows, (k, row), dx))
            col = x_col[row]
        if not passages:
            free_loops += 1
        for t, (kind, point, step) in enumerate(passages):
            out = label + (t + 1) % len(passages) + 1
            kind[point] = (label + t + 1, out, step)
        label += len(passages)
    crossings = []
    for point, (h_in, h_out, dx) in sorted(rows.items()):
        v_in, v_out, dy = cols[point]
        # counterclockwise from the row entering: the column on the
        # right of the row's way, the row leaving, the column on its left
        right, left = (v_in, v_out) if dx == dy else (v_out, v_in)
        crossings.append((h_in, right, h_out, left))
    return Diagram(crossings, free_loops)


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

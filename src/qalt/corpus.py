"""Bundled small diagrams. No other module of qalt, the CLI included,
imports this one: its readers are the tests and the benchmark, whose
table inputs start with the corpus codes (perfbench/run.py).

All torus diagrams use the left-handed convention (every crossing
negative), matching the bundled Hopf and trefoil codes.
"""

from __future__ import annotations

from ._util import _Record
from .diagram import Diagram, parse_pd

UNKNOT_PD = ""
CURL_PD = "X[1,1,2,2]"
HOPF_PD = "X[1,4,2,3] X[3,2,4,1]"
TREFOIL_PD = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIGURE_EIGHT_PD = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"


def unknot() -> Diagram:
    return Diagram((), 1)


def curl() -> Diagram:
    return parse_pd(CURL_PD)


def hopf() -> Diagram:
    return parse_pd(HOPF_PD)


def trefoil() -> Diagram:
    return parse_pd(TREFOIL_PD)


def figure_eight() -> Diagram:
    return parse_pd(FIGURE_EIGHT_PD)


def torus(n: int) -> Diagram:
    """The (2,n) torus diagram on 2n arcs; reproduces the bundled Hopf
    code at n = 2 and the trefoil at n = 3."""
    if not isinstance(n, int) or n < 2:
        raise ValueError("need n >= 2")
    crossings = []
    if n % 2:
        # one component; odd labels and even labels interleave
        odd_by_res = {k % n: k for k in range(1, 2 * n, 2)}
        even_by_res = {k % n: k for k in range(2, 2 * n + 1, 2)}
        for i in range(1, n + 1):
            r = (2 - i) % n
            p0 = odd_by_res[r]
            p1 = even_by_res[r]
            p2 = p0 % (2 * n) + 1
            p3 = p1 % (2 * n) + 1
            crossings.append((p0, p1, p2, p3))
    else:
        # two components: arcs 1..n and n+1..2n
        for i in range(1, n + 1):
            if i % 2:
                j = i - 1 if i > 1 else n
                p0 = i
                p1 = n + j
                p2 = (i % n) + 1
                p3 = n + (j % n) + 1
            else:
                p0 = n + i - 1
                p1 = i
                p2 = n + ((i - 1) % n) + 1
                p3 = (i % n) + 1
            crossings.append((p0, p1, p2, p3))
    return Diagram(crossings)


def hopf_hopf() -> Diagram:
    return hopf().connected_sum(hopf())


def hopf_trefoil() -> Diagram:
    return hopf().connected_sum(trefoil())


class Entry(_Record):
    __slots__ = ("name", "diagram", "prime", "det")


def entries() -> tuple:
    """The full corpus, duplicates elided: torus(2) and torus(3) equal
    the Hopf and trefoil codes tuple-for-tuple."""
    return (
        Entry("unknot", unknot(), prime=False, det=1),
        Entry("curl", curl(), prime=False, det=1),
        Entry("hopf", hopf(), prime=True, det=2),
        Entry("trefoil", trefoil(), prime=True, det=3),
        Entry("figure_eight", figure_eight(), prime=True, det=5),
        Entry("torus_2_4", torus(4), prime=True, det=4),
        Entry("torus_2_5", torus(5), prime=True, det=5),
        Entry("torus_2_6", torus(6), prime=True, det=6),
        Entry("torus_2_7", torus(7), prime=True, det=7),
        Entry("hopf_hopf", hopf_hopf(), prime=False, det=4),
        Entry("hopf_trefoil", hopf_trefoil(), prime=False, det=6),
    )

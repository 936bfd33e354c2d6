"""Quasi-alternating obstructions and the bounded certification search.

obstruct applies a battery of necessary conditions to a Jones
polynomial and determinant; any firing rule means the link cannot be
quasi-alternating. certify searches for a positive witness: a tree of
crossing resolutions with additive determinants whose leaves all
simplify to the unknot. The two directions are independent; "Unknown"
from the search is never evidence against membership.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .diagram import Diagram, DisconnectedDiagram, SplitDiagram, parse_pd
from .bracket import determinant as bracket_determinant
from .laurent import HalfLaurent, ZeroPolynomial, analyze, monomial_quotient
from .tait import NoEmbedding, goeritz_det, smoothing_dets
# certify and replay build the black graph only at non-alternating
# nodes. On a connected planar alternating diagram the black graph is
# one-signed, so |det| is its spanning-tree count (Kirchhoff), and
# tau(G) = tau(G - e) + tau(G / e) at an edge e that is neither a loop
# nor an isthmus, that is at a crossing whose two smoothings are both
# connected: such a node takes its determinant from its children. The
# call keeps the name checkerboard, under which perfbench's
# tait.checkerboard span counts it
from .tait import black_graph as checkerboard

NOTQA = "NotQA"
INCONCLUSIVE = "Inconclusive"

# Jones polynomial of the Hopf link used as the reference factor for
# connected sums of Hopf links
HOPF_JONES = HalfLaurent({-5: -1, -1: -1})


@dataclass(frozen=True)
class QAVerdict:
    status: str
    reasons: tuple
    assumptions: dict

    def rule_ids(self):
        return tuple(r[0] for r in self.reasons)


def torus_2n_jones(n: int) -> HalfLaurent:
    """Jones polynomial of the (2,n) torus link T(2,n), n >= 1, as the
    closure of the positive braid sigma_1^n:

        V = (-1)^(n+1) t^((n-1)/2) (1 + t^2 - t^3 + t^4 - ... + (-t)^n)

    for n >= 2, and 1 for the unknot T(2,1). It solves the skein
    recursion V_n = t^2 V_(n-2) + (t^(3/2) - t^(1/2)) V_(n-1) from
    V_0 = -(t^(1/2) + t^(-1/2)) and V_1 = 1."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return HalfLaurent.one()
    sign = 1 if n % 2 else -1
    terms = {n - 1: sign, n + 3: sign}
    for k in range(3, n + 1):
        terms[n - 1 + 2 * k] = sign if k % 2 == 0 else -sign
    return HalfLaurent(terms)


def obstruct(v: HalfLaurent, det: int, prime: bool = False) -> QAVerdict:
    """Necessary-condition battery for quasi-alternating links.

    Collects every firing rule, in order: determinant 0, or 1 on a V
    other than the unknot's; breadth bound against the determinant; any
    gap when the caller asserts a prime link and V is not
    +-t^r V(T(2,det)) nor that of its mirror, so the link is not a (2,n)
    torus link; more than one gap without Hopf-sum structure; small
    breadth with a determinant other than 1, 2, 3; broken sign
    alternation. A negative det raises ValueError.
    """
    if v.is_zero():
        raise ZeroPolynomial("the zero polynomial is not a Jones polynomial")
    if det < 0:
        raise ValueError("det must be a non-negative integer")
    rep = analyze(v, step2=2)
    reasons = []
    if det == 0 or (det == 1 and v != HalfLaurent.one()):
        # a split at a crossing needs det = det0 + det1 with both terms
        # at least 1, so only the unknot has a determinant below 2
        reasons.append(("det",
                        "a quasi-alternating link has determinant at "
                        "least 1, and only the unknot has determinant 1",
                        {"det": det}))
    if rep.breadth2 > 2 * det:
        reasons.append(("breadth", "breadth exceeds the determinant",
                        {"breadth2": rep.breadth2, "det": det}))
    if prime and det >= 1 and rep.gap_count() >= 1:
        # T(2,n) has determinant n; reversing one component of a link
        # multiplies V by a power of t (Jones's reversal formula), so one
        # orientation of T(2,det) and its mirror cover every candidate
        ref = torus_2n_jones(det)
        mirror = HalfLaurent({-e2: c for e2, c in ref.items2()})
        if (monomial_quotient(v, ref) is None
                and monomial_quotient(v, mirror) is None):
            reasons.append(("gap",
                            "gap in the Jones polynomial of a prime link "
                            "that is not a (2,n) torus link",
                            {"gaps": rep.gaps,
                             "torus_2n": {"n": det, "jones": ref.render()}}))
    if rep.gap_count() >= 2:
        k = rep.breadth2 // 4
        # (-t^(-5/2) (1 + t^2))^k has k + 1 terms, so a V of any other
        # length is no Hopf sum, and the power is not built for it
        if (len(v.items2()) != k + 1
                or monomial_quotient(v, HOPF_JONES ** k) is None):
            reasons.append(("multi-gap",
                            "more than one gap but not a connected sum "
                            "of Hopf links",
                            {"gaps": rep.gaps, "hopf_factors_tried": k}))
    if rep.breadth2 <= 6 and det not in (1, 2, 3):
        reasons.append(("small-breadth",
                        "breadth at most three forces determinant 1, 2 or 3",
                        {"breadth2": rep.breadth2, "det": det}))
    if not rep.alternating:
        reasons.append(("not-alternating",
                        "coefficient signs do not alternate on the lattice",
                        {"support2": v.support2()}))
    status = NOTQA if reasons else INCONCLUSIVE
    return QAVerdict(status=status, reasons=tuple(reasons),
                     assumptions={"prime": prime})


# certification search


@dataclass(frozen=True)
class Budget:
    max_depth: int = 24
    max_nodes: int = 100000
    simplify_passes: int | None = None  # None: simplify to the fixpoint


@dataclass(frozen=True)
class Certificate:
    root: Diagram
    tree: dict

    def to_json(self) -> str:
        """The tree as compact JSON; from_json reads any JSON layout."""
        return json.dumps(self.tree)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            tree = json.loads(text)
        except RecursionError:
            raise ValueError("certificate JSON is nested too deeply") from None
        _check_node(tree)
        return cls(root=parse_pd(tree["pd"]), tree=tree)


@dataclass(frozen=True)
class Unknown:
    reason: str  # "budget" or "exhausted"


class _BudgetExceeded(Exception):
    pass


def _check_embedding(s: Diagram):
    """Raise NoEmbedding, as checkerboard does, unless the connected
    diagram s fixes a planar embedding. Smoothings and R1/R2 moves keep
    a planar diagram planar, so checking the root covers its tree."""
    faces = s.face_count()
    if faces != len(s.crossings) + 2:
        raise NoEmbedding("face count %d is not crossings+2" % faces)


def certify(d: Diagram, budget: Budget = Budget()):
    """Bounded search for a quasi-alternating certificate.

    At each node the diagram is simplified; a 0-crossing unknot is a
    leaf. Otherwise crossings are tried in ascending order: a crossing
    qualifies when both smoothings have positive determinants adding up
    to the parent's, and both children certify recursively. Returns the
    first Certificate in this deterministic order, or Unknown("budget")
    / Unknown("exhausted").

    A node that is alternating (Diagram.is_alternating) is decided
    without its black graph. Its graph is one-signed, so its
    determinant is the graph's spanning-tree count, and deletion and
    contraction of an edge e give tau(G) = tau(G - e) + tau(G / e)
    unless e is a loop or an isthmus, a nugatory crossing, one of whose
    smoothings is split. So a crossing qualifies exactly when both of
    its smoothings are connected, and the node's det is the sum of its
    children's. Where no crossing qualifies, every edge is a loop or an
    isthmus and tau = 1: those are exactly the nodes that the det < 2
    test of the Goeritz path rejects. The children are searched in the
    same order and count against the same budget as on that path. The
    root is checked for a planar embedding, as checkerboard checks every
    node it reads.

    The search adds one Python frame per level, and each level removes
    a crossing (simplify never adds one), so the depth never exceeds the
    root's crossing count, and the default recursion limit of 1000
    covers roots of several hundred crossings."""
    if d.component_count == 0 or not d.is_connected():
        raise SplitDiagram("certification needs a connected nonempty diagram")
    memo = {}
    counter = [0]

    def rec(dd: Diagram, det: int | None, depth: int):
        # det is the parent's value for this smoothing, None at the root
        # and below an alternating node; R1/R2 moves preserve it
        counter[0] += 1
        if counter[0] > budget.max_nodes or depth > budget.max_depth:
            raise _BudgetExceeded()
        s = dd.simplify(budget.simplify_passes).canonical()
        if not s.crossings:
            if s.component_count == 1:
                return {"pd": dd.render(), "det": 1, "leaf": True}
            return None
        if not s.is_connected():
            return None
        key = s.render()
        core = memo.get(key)
        if core is not None:
            return {"pd": dd.render(), **core}
        alternating = s.is_alternating()
        if alternating:
            if not depth:
                _check_embedding(s)
        else:
            g = checkerboard(s)
            if det is None:
                det = goeritz_det(g)
            if det < 2:
                # a 1-determinant diagram that does not simplify away is
                # not provably the unknot; additivity needs det >= 2 anyway
                return None
        for c in range(len(s.crossings)):
            if alternating:
                s0, s1 = s.smooth(c, 0), s.smooth(c, 1)
                if not (s0.is_connected() and s1.is_connected()):
                    continue
                det0 = det1 = None
            else:
                det0, det1 = smoothing_dets(g, c)
                if det0 < 1 or det1 < 1 or det0 + det1 != det:
                    continue
                s0, s1 = s.smooth(c, 0), None
            n0 = rec(s0, det0, depth + 1)
            if n0 is None:
                continue
            n1 = rec(s.smooth(c, 1) if s1 is None else s1, det1, depth + 1)
            if n1 is None:
                continue
            # each child's det is its link's determinant, so where det0
            # and det1 were solved the sum is det
            core = {"det": n0["det"] + n1["det"], "reduced_pd": key,
                    "crossing": c, "children": [n0, n1]}
            memo[key] = core
            return {"pd": dd.render(), **core}
        return None

    try:
        tree = rec(d, None, 0)
    except _BudgetExceeded:
        return Unknown("budget")
    finally:
        # rec reaches itself through its closure; unbinding it frees the
        # memo now instead of at the next cyclic collection
        rec = None
    if tree is None:
        return Unknown("exhausted")
    return Certificate(root=d, tree=tree)


def _reduced(d: Diagram, want: str) -> Diagram:
    """The reduction of d that a search stored as want.

    The fixpoint of simplify() comes first. A search with a pass budget
    may stop earlier; simplify is greedy and deterministic, so its
    partial reductions are the prefixes of one move sequence, and each
    of them is isotopic to d."""
    s = d.simplify().canonical()
    if s.render() == want:
        return s
    step = d
    while True:
        s = step.canonical()
        if s.render() == want:
            return s
        nxt = step.simplify(1)
        if nxt is step:
            raise ValueError("reduced diagram mismatch")
        step = nxt


def _check_node(node):
    """Raise ValueError unless node is shaped like a certificate node:
    an object with a string "pd" and an int "det"; unless it is a leaf,
    also a string "reduced_pd", an int "crossing" and a list of two
    children. JSON true and 3.0 are not ints here, as in parse_pd."""
    if not isinstance(node, dict) or not isinstance(node.get("pd"), str):
        raise ValueError("certificate node needs a string \"pd\"")
    if type(node.get("det")) is not int:
        raise ValueError("certificate node needs an integer \"det\"")
    if node.get("leaf"):
        return
    if (not isinstance(node.get("reduced_pd"), str)
            or type(node.get("crossing")) is not int):
        raise ValueError("internal node needs a string \"reduced_pd\" "
                         "and an integer \"crossing\"")
    kids = node.get("children")
    if not isinstance(kids, list) or len(kids) != 2:
        raise ValueError("internal node needs two children")


def replay_certificate(cert) -> bool:
    """Re-verify a certificate from scratch; raises ValueError on any
    broken condition, including a Certificate whose root diagram is not
    the one its tree's "pd" describes, and the root determinant against
    the bracket route. A raw tree is rooted at its parsed "pd".

    A leaf must simplify to the unknot, and its det is 1. An internal
    node's stored det is checked against the Goeritz determinant of its
    black graph, unless the node is alternating: such a node must be
    connected, and its stored det must equal the sum of its children's,
    which are checked first. That accepts the same trees. By induction
    from the leaves each child's det is its link's; a child whose det is
    at least 1 is not split, so the crossing is not nugatory, and on a
    connected planar alternating diagram the spanning-tree count of the
    one-signed black graph, its determinant, is then the sum of the
    counts after deleting and contracting the crossing's edge (see
    certify). The root is checked for a planar embedding, as
    checkerboard checks every node it reads.

    Each distinct node is verified once. An occurrence equal, own "pd"
    included, to a node that already passed is accepted at once: the
    root's text was parsed to the root diagram, and every child's text
    checked against its smoothing, so that text fixes the diagram, and the
    diagram and the node fix every check. Any other occurrence is
    reduced and compared with its "reduced_pd"; one equal, apart from
    its "pd", to a node that already passed under the same "reduced_pd"
    is accepted without repeating the rest, since the reduced diagram is
    determined by that text. A copy that differs anywhere else is checked
    in full, so the same trees are accepted and rejected, with the same
    first error, as when every occurrence is checked.

    The walk adds one Python frame per level, and it descends only into
    children already checked to be smoothings, each with one crossing
    fewer, so it goes no deeper than the root's crossing count, whatever
    the tree."""
    tree = cert.tree if isinstance(cert, Certificate) else cert
    _check_node(tree)
    if isinstance(cert, Certificate):
        root = cert.root
        if parse_pd(tree["pd"]) != root:
            raise ValueError("root \"pd\" is not the certificate's root")
    else:
        root = parse_pd(tree["pd"])
    passed = {}  # "pd" -> a node that passed
    verified = {}  # reduced_pd -> a node that passed, without its "pd"

    def walk(node, d):
        if passed.get(node["pd"]) == node:
            return node["det"]
        if node.get("leaf"):
            if node["det"] != 1:
                raise ValueError("leaf with det != 1")
            s = d.simplify()
            if s.crossings or s.component_count != 1:
                raise ValueError("leaf does not simplify to the unknot")
            passed[node["pd"]] = node
            return 1
        key = node["reduced_pd"]
        s = _reduced(d, key)
        body = {k: v for k, v in node.items() if k != "pd"}
        if verified.get(key) == body:
            passed[node["pd"]] = node
            return node["det"]
        alternating = s.is_alternating()
        if alternating:
            if not s.is_connected():
                raise DisconnectedDiagram("certificate node is not connected")
            if d is root:
                _check_embedding(s)
        else:
            det = goeritz_det(checkerboard(s))
            if det != node["det"]:
                raise ValueError("stored det %r != %r" % (node["det"], det))
        c = node["crossing"]
        kids = node["children"]
        smoothings = [s.smooth(c, r) for r in (0, 1)]
        for r, kid in enumerate(kids):
            _check_node(kid)
            sm = smoothings[r]
            # parse_pd(sm.render()) == sm when sm has no free loops, so
            # matching text needs no parse
            if ((sm.free_loops or kid["pd"] != sm.render())
                    and parse_pd(kid["pd"]) != sm):
                raise ValueError("child %d is not the %d-smoothing" % (r, r))
        d0 = walk(kids[0], smoothings[0])
        d1 = walk(kids[1], smoothings[1])
        if alternating and d0 + d1 != node["det"]:
            raise ValueError("stored det %r != %r" % (node["det"], d0 + d1))
        if d0 < 1 or d1 < 1 or d0 + d1 != node["det"]:
            raise ValueError("determinant additivity fails at a node")
        verified[key] = body
        passed[node["pd"]] = node
        return node["det"]

    try:
        root_det = walk(tree, root)
    finally:
        # as in certify: free what walk's closure holds now
        walk = None
    if root_det != bracket_determinant(root):
        raise ValueError("root determinant disagrees with the bracket route")
    return True


# Kanenobu family

_KANENOBU_COEFFS = (1, -2, 3, -4, 4, -4, 3, -2, 1)


def kanenobu_jones(p: int, q: int) -> HalfLaurent:
    """Closed-form Jones polynomial of the Kanenobu knot K(p, q)."""
    s = p + q
    sign = -1 if s % 2 else 1
    terms = {}
    for k, c in zip(range(-4, 5), _KANENOBU_COEFFS):
        terms[2 * (s + k)] = sign * c
    terms[0] = terms.get(0, 0) + 1
    return HalfLaurent(terms)


@dataclass(frozen=True)
class KanenobuVerdict:
    status: str
    agrees: bool
    obstruction: QAVerdict = field(compare=False)


def kanenobu_obstruction(p: int, q: int) -> KanenobuVerdict:
    """NotQA exactly when |p|+|q| >= 19 or |p+q| > 6; also reports
    whether the generic obstruction battery reaches the same status on
    the closed-form polynomial with det 25."""
    status = NOTQA if (abs(p) + abs(q) >= 19 or abs(p + q) > 6) \
        else INCONCLUSIVE
    verdict = obstruct(kanenobu_jones(p, q), 25, prime=True)
    return KanenobuVerdict(status=status,
                           agrees=(verdict.status == status),
                           obstruction=verdict)

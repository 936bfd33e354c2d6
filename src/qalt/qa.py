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

from ._util import _Record
from .diagram import Diagram, DisconnectedDiagram, parse_pd
from .bracket import determinant as bracket_determinant
from .laurent import HalfLaurent, ZeroPolynomial, analyze, monomial_quotient
from .tait import goeritz_det, smoothing_dets
# certify and replay build the black graph only at non-alternating
# nodes. On a connected planar alternating diagram it is one-signed, so
# both terms of smoothing_dets's identity have the sign of the whole:
# det = det0 + det1 at each crossing, and a node whose smoothings are
# both connected takes its determinant from its children. The call
# keeps the name checkerboard, under which perfbench's
# tait.checkerboard span counts it
from .tait import black_graph as checkerboard

NOTQA = "NotQA"
INCONCLUSIVE = "Inconclusive"

# Jones polynomial of the Hopf link used as the reference factor for
# connected sums of Hopf links
HOPF_JONES = HalfLaurent({-5: -1, -1: -1})


class QAVerdict(_Record):
    __slots__ = ("status", "reasons", "assumptions")

    def __init__(self, status: str, reasons: tuple, assumptions: dict):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "reasons", reasons)
        object.__setattr__(self, "assumptions", assumptions)


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
        # orientation of T(2,det) and its mirror cover every candidate.
        # For n >= 2 both have n terms and breadth n, so a V of any other
        # length or breadth is neither, and V(T(2,det)) is not built
        torus = False
        if len(v.items2()) == det and rep.breadth2 == 2 * det:
            ref = torus_2n_jones(det)
            mirror = HalfLaurent({-e2: c for e2, c in ref.items2()})
            torus = (monomial_quotient(v, ref) is not None
                     or monomial_quotient(v, mirror) is not None)
        if not torus:
            reasons.append(("gap",
                            "gap in the Jones polynomial of a prime link "
                            "that is not a (2,n) torus link",
                            {"gaps": rep.gaps, "torus_2n": {"n": det}}))
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


class Budget(_Record):
    __slots__ = ("max_depth", "max_nodes", "simplify_passes")

    def __init__(self, max_depth: int = 24, max_nodes: int = 100000,
                 simplify_passes: int | None = None):
        # simplify_passes None: simplify to the fixpoint
        object.__setattr__(self, "max_depth", max_depth)
        object.__setattr__(self, "max_nodes", max_nodes)
        object.__setattr__(self, "simplify_passes", simplify_passes)


class Certificate(_Record):
    """A certificate is its tree, format version 2: the root is
    {"version": 2, "pd": <root PD text>, "det": <its determinant>, ...}
    and otherwise a node. An internal node is {"reduced_pd", "det",
    "crossing", "children": [c0, c1]}: its diagram reduced by simplify,
    as canonical PD text, the determinant of its link, and the crossing
    of the reduced diagram whose r-smoothing, untwisted
    (Diagram.smooth with untwist), child r is. Each child is one of:

    - the full internal node, where its "reduced_pd" first occurs in
      preorder;
    - {"ref": i}, the i-th full internal node in preorder, the root
      being 0, written before it;
    - {"leaf": true}, the unknot, of det 1.

    No child stores PD text of its own. A root that is a leaf is
    {"version": 2, "pd": ..., "det": 1, "leaf": true}."""

    __slots__ = ("tree",)

    def __init__(self, tree: dict):
        object.__setattr__(self, "tree", tree)

    def to_json(self) -> str:
        """The tree as compact JSON; from_json reads it compact or indented."""
        return json.dumps(self.tree)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            tree = json.loads(text)
        except RecursionError:
            raise ValueError("certificate JSON is nested too deeply") from None
        _check_root(tree)
        return cls(tree)


class Unknown(_Record):
    __slots__ = ("reason",)

    def __init__(self, reason: str):
        # "budget" or "exhausted"
        object.__setattr__(self, "reason", reason)


class _BudgetExceeded(Exception):
    pass


def certify(d: Diagram, budget: Budget = Budget()):
    """Bounded search for a quasi-alternating certificate.

    At each node the diagram is simplified; a 0-crossing unknot is a
    leaf. Otherwise crossings are tried in ascending order: a crossing
    qualifies when both smoothings have positive determinants adding up
    to the parent's, and both children certify recursively. Each child
    is the smoothing with the curls it makes removed in the same splice
    (Diagram.smooth with untwist); simplify, under the budget's pass
    count, does the rest. Below an alternating node that simplify
    reduced, that rest is nothing: the child is reduced and born marked
    so, and simplify returns it without a scan (see the diagram module).
    Returns the first Certificate in this deterministic order, or
    Unknown("budget") / Unknown("exhausted").

    A node that is not alternating reads its det and each crossing's
    pair (det0, det1) off its black graph (tait.smoothing_dets), one
    Goeritz minor each. A node that is alternating
    (Diagram.is_alternating) is decided without its black graph. Its
    graph is one-signed, so both terms of smoothing_dets's identity
    have the sign of the whole, and det = det0 + det1 at every
    crossing; a term is 0 only at a loop or an isthmus, a nugatory
    crossing, one of whose smoothings is split. So a crossing qualifies
    exactly when both of its smoothings are connected, and the node's
    det is the sum of its children's. Where no crossing qualifies, every
    edge is a loop or an isthmus and the det is 1: those are exactly the
    nodes that the det < 2 test of the Goeritz path rejects. The
    children are searched in the same order and count against the same
    budget as on that path.

    The root is checked once, before the search: it must be connected
    (DisconnectedDiagram) and have a planar embedding (NoEmbedding, from
    Diagram.check_planar). Smoothings and R1/R2 moves keep a planar
    diagram planar, so no node below is checked again; checkerboard
    makes its own check at the non-alternating nodes it reads.

    The search memoises each certified reduced diagram by its text, and
    each one whose search failed. The search below a node depends on its
    text alone, and a node that fails was searched in full, since a node
    or depth overrun ends the whole search. So no reduced diagram is
    expanded twice; the order of the search is kept, and only subtrees
    known to fail are skipped, so a certificate comes out the same, in
    fewer nodes. The certificate is written from the success memo once
    the search is done, in the version 2 layout (see Certificate): each
    distinct node in full once, with "pd" = d.render() at the root.

    The search adds one Python frame per level, and each level removes
    a crossing (simplify never adds one), so the depth never exceeds the
    root's crossing count, and the default recursion limit of 1000
    covers roots of several hundred crossings."""
    if not d.is_connected():
        raise DisconnectedDiagram(
            "certification needs a connected nonempty diagram")
    d.check_planar()
    # reduced PD text -> (det, crossing, child 0 key, child 1 key); the
    # unknot leaf's key is its PD text, "", and its det is 1
    memo = {"": (1,)}
    # reduced PD text of each node whose search failed
    failed = set()
    counter = [0]

    def rec(dd: Diagram, depth: int):
        # the node's key is returned, None when it does not certify
        counter[0] += 1
        if counter[0] > budget.max_nodes or depth > budget.max_depth:
            raise _BudgetExceeded()
        s = dd.simplify(budget.simplify_passes).canonical()
        if not s.crossings:
            return "" if s.component_count == 1 else None
        if not s.is_connected():
            return None
        key = s.render()
        if key in memo:
            return key
        if key in failed:
            return None
        alternating = s.is_alternating()
        if not alternating:
            det, pairs = smoothing_dets(checkerboard(s))
            if det < 2:
                # a 1-determinant diagram that does not simplify away is
                # not provably the unknot; additivity needs det >= 2 anyway
                failed.add(key)
                return None
        for c in range(len(s.crossings)):
            if alternating:
                s0 = s.smooth(c, 0, untwist=True)
                s1 = s.smooth(c, 1, untwist=True)
                if not (s0.is_connected() and s1.is_connected()):
                    continue
            else:
                det0, det1 = next(pairs)
                if det0 < 1 or det1 < 1 or det0 + det1 != det:
                    continue
                s0, s1 = s.smooth(c, 0, untwist=True), None
            k0 = rec(s0, depth + 1)
            if k0 is None:
                continue
            if s1 is None:
                s1 = s.smooth(c, 1, untwist=True)
            k1 = rec(s1, depth + 1)
            if k1 is None:
                continue
            # each child's det is its link's determinant, so where det0
            # and det1 were solved the sum is det
            memo[key] = (memo[k0][0] + memo[k1][0], c, k0, k1)
            return key
        failed.add(key)
        return None

    try:
        top = rec(d, 0)
    except _BudgetExceeded:
        return Unknown("budget")
    finally:
        # rec reaches itself through its closure; unbinding it frees the
        # memo now instead of at the next cyclic collection
        rec = None
    if top is None:
        return Unknown("exhausted")
    root = {"version": 2, "pd": d.render()}
    if not top:
        return Certificate({**root, "det": 1, "leaf": True})
    return Certificate({**root, **_entry(memo, {}, top)})


def _entry(memo, ids, key: str) -> dict:
    """The certificate entry of the memo's node key: in full, numbered
    in ids by preorder, the first time; a ref to that number after."""
    if not key:
        return {"leaf": True}
    if key in ids:
        return {"ref": ids[key]}
    ids[key] = len(ids)
    det, c, k0, k1 = memo[key]
    return {"reduced_pd": key, "det": det, "crossing": c,
            "children": [_entry(memo, ids, k0), _entry(memo, ids, k1)]}


def _reduced(d: Diagram, want: str) -> Diagram | None:
    """The reduction of d that a search stored as want, or None.

    The fixpoint of simplify() comes first. A search with a pass budget
    may stop earlier; simplify is greedy and deterministic, so its
    partial reductions are the prefixes of one move sequence, and each
    of them is isotopic to d. A search stores only connected diagrams
    with crossings, and moves never remove a free loop, so the sequence
    is read only up to its first free loop."""
    s = d.simplify().canonical()
    if not s.free_loops and s.render() == want:
        return s
    step = d
    while not step.free_loops:
        s = step.canonical()
        if s.render() == want:
            return s
        nxt = step.simplify(1)
        if nxt is step:
            break
        step = nxt
    return None


def _check_root(tree):
    """Raise ValueError unless tree is shaped like a version 2 root: an
    object with "version" 2, a string "pd" and an int "det", and unless
    it is a leaf, shaped like an internal node."""
    if not isinstance(tree, dict) or tree.get("version") != 2 \
            or type(tree["version"]) is not int:
        raise ValueError("certificate needs \"version\": 2")
    if not isinstance(tree.get("pd"), str):
        raise ValueError("certificate root needs a string \"pd\"")
    if tree.get("leaf") is not True:
        _check_node(tree)
    elif type(tree.get("det")) is not int:
        raise ValueError("certificate node needs an integer \"det\"")


def _check_node(node):
    """Raise ValueError unless node is shaped like an internal node: an
    object with a string "reduced_pd", an int "det", an int "crossing"
    and a list of two children. JSON true and 3.0 are not ints here, as
    in parse_pd."""
    if not isinstance(node, dict):
        raise ValueError("certificate node must be an object")
    if type(node.get("det")) is not int:
        raise ValueError("certificate node needs an integer \"det\"")
    if (not isinstance(node.get("reduced_pd"), str)
            or type(node.get("crossing")) is not int):
        raise ValueError("internal node needs a string \"reduced_pd\" "
                         "and an integer \"crossing\"")
    kids = node.get("children")
    if not isinstance(kids, list) or len(kids) != 2:
        raise ValueError("internal node needs two children")


def _check_leaf(d: Diagram):
    s = d.simplify()
    if s.crossings or s.component_count != 1:
        raise ValueError("leaf does not simplify to the unknot")


def replay_certificate(cert) -> bool:
    """Re-verify a version 2 certificate, or a bare tree, from scratch;
    raises ValueError on any broken condition, including the root
    determinant against the bracket route. The root diagram is the
    tree's "pd", parsed once and checked once for a planar embedding
    (NoEmbedding), which its smoothings keep, and reduced to its
    "reduced_pd" (or, at a leaf root, to the unknot, with det 1).

    Each full node is checked once. Its stored det is checked against
    the Goeritz determinant of its black graph, unless the node is
    alternating: such a node must be connected, and its stored det must
    equal the sum of its children's, which are checked first. By
    induction from the leaves each child's det is its link's; on a
    connected planar alternating diagram the black graph is one-signed,
    so the node's det is the sum of its two smoothings' determinants at
    every crossing (see certify and tait.smoothing_dets).

    Child r of a node is derived as s.smooth(c, r, untwist=True) from
    the node's reduced diagram s, and must reduce (as the search
    reduced it, see _reduced) to the child's reduced_pd, or simplify to
    the unknot at a leaf. Below a reduced alternating s the child is
    born marked as reduced, and neither check scans it for moves. A ref
    names a full node written before it in preorder whose check is
    done, so its det is known; an ancestor, a node after it, an index
    out of range and a key written in full twice are refused.

    The walk adds one Python frame per level, and it descends only into
    children already checked to be smoothings, each with one crossing
    fewer, so it goes no deeper than the root's crossing count, whatever
    the tree."""
    tree = cert.tree if isinstance(cert, Certificate) else cert
    _check_root(tree)
    root = parse_pd(tree["pd"])
    root.check_planar()
    keys = []  # reduced_pd of each full node, by preorder index
    dets = {}  # reduced_pd -> det of a full node, None until checked

    def child_det(s, c, r, kid):
        # check kid as child r of the node s at crossing c; its det
        sm = s.smooth(c, r, untwist=True)
        if not isinstance(kid, dict):
            raise ValueError("certificate node must be an object")
        ref = kid.get("ref")
        if ref is not None:
            if (type(ref) is not int or not 0 <= ref < len(keys)
                    or dets[keys[ref]] is None):
                raise ValueError("child %d refers to no node checked "
                                 "before it: %r" % (r, ref))
            key = keys[ref]
        elif kid.get("leaf") is True:
            _check_leaf(sm)
            return 1
        else:
            _check_node(kid)
            key = kid["reduced_pd"]
        reduced = _reduced(sm, key)
        if reduced is None:
            raise ValueError("child %d is not the %d-smoothing" % (r, r))
        return walk(kid, reduced) if ref is None else dets[key]

    def walk(node, s):
        key = node["reduced_pd"]
        if key in dets:
            raise ValueError("node %r is written in full twice" % key)
        dets[key] = None
        keys.append(key)
        alternating = s.is_alternating()
        if alternating:
            if not s.is_connected():
                raise DisconnectedDiagram("certificate node is not connected")
        else:
            det = goeritz_det(checkerboard(s))
            if det != node["det"]:
                raise ValueError("stored det %r != %r" % (node["det"], det))
        c = node["crossing"]
        kids = node["children"]
        d0 = child_det(s, c, 0, kids[0])
        d1 = child_det(s, c, 1, kids[1])
        if alternating and d0 + d1 != node["det"]:
            raise ValueError("stored det %r != %r" % (node["det"], d0 + d1))
        if d0 < 1 or d1 < 1 or d0 + d1 != node["det"]:
            raise ValueError("determinant additivity fails at a node")
        dets[key] = node["det"]
        return node["det"]

    try:
        if tree.get("leaf") is True:
            if tree["det"] != 1:
                raise ValueError("leaf with det != 1")
            _check_leaf(root)
            root_det = 1
        else:
            s = _reduced(root, tree["reduced_pd"])
            if s is None:
                raise ValueError("reduced diagram mismatch")
            root_det = walk(tree, s)
    finally:
        # as in certify: free what walk's closure holds now
        walk = child_det = None
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


class KanenobuVerdict(_Record):
    __slots__ = ("status", "agrees")

    def __init__(self, status: str, agrees: bool):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "agrees", agrees)


def kanenobu_obstruction(p: int, q: int) -> KanenobuVerdict:
    """NotQA exactly when |p|+|q| >= 19 or |p+q| > 6; also reports
    whether the generic obstruction battery reaches the same status on
    the closed-form polynomial with det 25."""
    status = NOTQA if (abs(p) + abs(q) >= 19 or abs(p + q) > 6) \
        else INCONCLUSIVE
    verdict = obstruct(kanenobu_jones(p, q), 25, prime=True)
    return KanenobuVerdict(status=status, agrees=(verdict.status == status))

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
from .tait import checkerboard, goeritz_det, smoothing_dets

NOTQA = "NotQA"
INCONCLUSIVE = "Inconclusive"

# Jones polynomial of the Hopf link used as the reference factor for
# connected sums of Hopf links
HOPF_JONES = HalfLaurent({-5: -1, -1: -1})


class QAVerdict(_Record):
    """obstruct's answer: its status, the rules that fired as (rule,
    statement, witness) triples, the assumptions it was given, and the
    GapReport of V at step 1 in t that its rules read."""

    __slots__ = ("status", "reasons", "assumptions", "report")


def torus_2n_jones(n: int) -> HalfLaurent:
    """Jones polynomial of the (2,n) torus link T(2,n), n >= 1, as the
    closure of the positive braid sigma_1^n:

        V = (-1)^(n+1) t^((n-1)/2) (1 + t^2 - t^3 + t^4 - ... + (-t)^n)

    for n >= 2, and 1 for the unknot T(2,1). It solves the skein
    recursion V_n = t^2 V_(n-2) + (t^(3/2) - t^(1/2)) V_(n-1) from
    V_0 = -(t^(1/2) + t^(-1/2)) and V_1 = 1."""
    if type(n) is not int or n < 1:
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
    alternation. A det that is not a non-negative int raises ValueError.
    The verdict carries the gap report the rules read, analyze(v,
    step2=2), so a caller needs no second analyze.
    """
    if v.is_zero():
        raise ZeroPolynomial("the zero polynomial is not a Jones polynomial")
    if type(det) is not int or det < 0:
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
                     assumptions={"prime": prime}, report=rep)


# certification search


class Budget(_Record):
    """How much work certify may do. max_nodes bounds the nodes visited,
    max_depth the levels below the root, and simplify_passes the R1/R2
    moves that reduce one node (None: no bound). Each field is a
    non-negative int, and ValueError names one that is not. A budget
    only ends a search: passing any one bound ends it with
    Unknown("budget"), so a certificate does not depend on its budget."""

    __slots__ = ("max_depth", "max_nodes", "simplify_passes")

    def __init__(self, max_depth: int = 24, max_nodes: int = 100000,
                 simplify_passes: int | None = None):
        for name, value in zip(self.__slots__,
                               (max_depth, max_nodes, simplify_passes)):
            if not ((type(value) is int and value >= 0)
                    or (value is None and name == "simplify_passes")):
                raise ValueError("%s must be a non-negative integer: %r"
                                 % (name, value))
            object.__setattr__(self, name, value)


class Certificate(_Record):
    """A certificate is its tree, format version 3: {"version": 3,
    "pd": <root PD text>, "nodes": [...]}, a flat table of the internal
    nodes. Node i is the array [reduced_pd, det, crossing, child0,
    child1]: its key under the node rule, _reduce, which is the PD text
    of its reduced diagram, the determinant of its link, and the
    crossing of the reduced diagram whose r-smoothing, untwisted
    (Diagram.smooth with untwist), child r is. Each child is "leaf",
    the unknot, whose key is "" and det 1, or the index j of node j,
    i < j < len(nodes). Node 0 is the root's reduced diagram, and every
    other node is some node's child. A root that is a leaf has no
    nodes, and its det is 1.

    No child stores PD text of its own, each distinct reduced diagram
    is one node, and the JSON nests to the same depth however deep the
    tree."""

    __slots__ = ("tree",)

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
    # reason: "budget" or "exhausted"
    __slots__ = ("reason",)


class _BudgetExceeded(Exception):
    pass


def _reduce(d: Diagram, passes: int | None = None):
    """The node rule: d at simplify()'s fixpoint, made canonical, and
    its key, "" for the unknot, the PD text for a connected diagram with
    crossings, and None for anything else, which no certificate names.
    More than passes R1/R2 moves raise _BudgetExceeded."""
    s = d.simplify(passes)
    if s.simplify(1) is not s:
        # more moves than passes; a fixpoint returns at once
        raise _BudgetExceeded()
    s = s.canonical()
    if not s.crossings:
        return s, "" if s.component_count == 1 else None
    return s, s.render() if s.is_connected() else None


def certify(d: Diagram, budget: Budget = Budget()):
    """Bounded search for a quasi-alternating certificate.

    Every node, the root too, is reduced and keyed by the node rule,
    _reduce: the unknot is a leaf, a split diagram does not certify, and
    a node that needs more R1/R2 moves than the budget's pass count ends
    the search. Otherwise crossings are tried in ascending order: a
    crossing qualifies when both smoothings have positive determinants
    adding up to the parent's, and both children certify recursively.
    Each child is the smoothing with the curls it makes removed in the
    same splice (Diagram.smooth with untwist); _reduce does the rest.
    Below an alternating node that simplify reduced, that rest is
    nothing: the child is reduced and born marked so, and simplify
    returns it without a scan (see the diagram module). Returns the
    first Certificate in this deterministic order, or Unknown("budget")
    / Unknown("exhausted").

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

    The search memoises each reduced diagram by its key, whether it
    certified or failed. The search below a node depends on its text
    alone, and a node that fails was searched in full, since any overrun
    ends the whole search. So no reduced diagram is expanded twice; the
    order of the search is kept, and only subtrees known to fail are
    skipped, so a certificate comes out the same, in fewer nodes. The
    certificate is written from the memo once the search is done, in the
    version 3 layout (see Certificate), with "pd" = d.render() at the
    root. The memo takes a node only after both its children, so its
    certified nodes reachable from the top, numbered in reverse
    insertion order, put every child after its parents. The order in
    which parents find their children would not: a shared child found
    below one parent may precede another parent found later.

    The search adds one Python frame per level, and each level removes
    a crossing (simplify never adds one), so the depth never exceeds the
    root's crossing count. A search deeper than the interpreter's
    recursion limit allows is out of budget too: Unknown("budget")."""
    if not d.is_connected():
        raise DisconnectedDiagram(
            "certification needs a connected nonempty diagram")
    d.check_planar()
    # reduced PD text -> (det, crossing, child 0 key, child 1 key), or
    # None where the node's search failed; the unknot leaf's key is its
    # PD text, "", and its det is 1
    memo = {"": (1,)}
    counter = [0]

    def rec(dd: Diagram, depth: int):
        # the node's key is returned, None when it does not certify
        counter[0] += 1
        if counter[0] > budget.max_nodes or depth > budget.max_depth:
            raise _BudgetExceeded()
        s, key = _reduce(dd, budget.simplify_passes)
        if key is None or key in memo:
            # split, the unknot leaf, or searched before: a search that
            # failed is memoised as None
            return key if memo.get(key) else None
        alternating = s.is_alternating()
        if not alternating:
            det, pairs = smoothing_dets(checkerboard(s)[0])
            if det < 2:
                # a 1-determinant diagram that does not simplify away is
                # not provably the unknot; additivity needs det >= 2 anyway
                memo[key] = None
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
        memo[key] = None
        return None

    try:
        top = rec(d, 0)
    except (_BudgetExceeded, RecursionError):
        return Unknown("budget")
    finally:
        # rec reaches itself through its closure; unbinding it frees the
        # memo now instead of at the next cyclic collection
        rec = None
    if top is None:
        return Unknown("exhausted")
    keys, reach = [], {top}
    for key in reversed(memo):
        if key and key in reach:
            keys.append(key)
            reach.update(memo[key][2:])
    ids = {key: i for i, key in enumerate(keys)}
    ids[""] = "leaf"
    nodes = []
    for key in keys:
        det, c, k0, k1 = memo[key]
        nodes.append([key, det, c, ids[k0], ids[k1]])
    return Certificate({"version": 3, "pd": d.render(), "nodes": nodes})


def _check_root(tree):
    """Raise ValueError unless tree is shaped like a version 3 root: an
    object with "version" 3, a string "pd" and a list "nodes"."""
    if not isinstance(tree, dict) or tree.get("version") != 3 \
            or type(tree["version"]) is not int:
        raise ValueError("certificate needs \"version\": 3")
    if not isinstance(tree.get("pd"), str):
        raise ValueError("certificate root needs a string \"pd\"")
    if not isinstance(tree.get("nodes"), list):
        raise ValueError("certificate root needs a list \"nodes\"")


def _check_node(nodes, i: int) -> list:
    """Node i of the table, after a ValueError unless it is shaped as
    [reduced_pd, det, crossing, child0, child1]: a string, two ints and
    two children, each "leaf" or the index of a later node. JSON true
    and 3.0 are not ints here, as in parse_pd."""
    node = nodes[i]
    if not (isinstance(node, list) and len(node) == 5
            and isinstance(node[0], str) and type(node[1]) is int
            and type(node[2]) is int):
        raise ValueError("certificate node %d is not [reduced_pd, det, "
                         "crossing, child0, child1]" % i)
    for r, k in enumerate(node[3:]):
        if k != "leaf" and not (type(k) is int and i < k < len(nodes)):
            raise ValueError("node %d: child %d is neither \"leaf\" nor "
                             "a later node: %r" % (i, r, k))
    return node


def replay_certificate(cert) -> bool:
    """Re-verify a version 3 certificate, or a bare tree, from scratch;
    raises ValueError on any broken condition, including the root
    determinant against the bracket route. The root diagram is the
    tree's "pd", parsed once and checked once for a planar embedding
    (NoEmbedding), which its smoothings keep. The root and every child
    derived go through the node rule, _reduce, and their key must be
    the table's entry for them: node k's reduced_pd, or "" at a leaf,
    of det 1. The root's entry is node 0, or a leaf where there are no
    nodes. A split diagram's key is None, which matches nothing.

    Two loops over the table check it, neither recursive. The forward
    loop takes the nodes in index order, so each comes after all its
    parents. A node's shape is checked where it is first met, and a node
    that no parent derived is refused. Child r of node i is derived as
    s.smooth(c, r, untwist=True) from node i's reduced diagram s, and
    keyed as above; the first parent's reduction is the child's
    diagram, kept until the child's own children are derived. Below a
    reduced alternating s the child is born marked as reduced, and
    _reduce does not scan it for moves. A node that is not alternating
    must store the Goeritz determinant of its black graph.

    The backward loop, from the last node, checks d0 >= 1, d1 >= 1 and
    d0 + d1 = det at every node, its children being checked before it.
    By induction each child's det is its link's, and so is an
    alternating node's: on a connected planar alternating diagram the
    black graph is one-signed, so the det is the sum of the two
    smoothings' determinants at every crossing (see certify and
    tait.smoothing_dets)."""
    tree = cert.tree if isinstance(cert, Certificate) else cert
    _check_root(tree)
    root = parse_pd(tree["pd"])
    root.check_planar()
    nodes = tree["nodes"]

    def derive(d: Diagram, k, parent=None, r=0) -> Diagram:
        # d reduced by _reduce, after a ValueError unless its key is
        # entry k's: "" at a leaf, node k's reduced_pd otherwise, which
        # is not "", as no node is the unknot; the root has no parent
        want = "" if k == "leaf" else _check_node(nodes, k)[0]
        s, key = _reduce(d)
        if key == want and (key or k == "leaf"):
            return s
        if k == "leaf":
            raise ValueError("leaf does not simplify to the unknot")
        if parent is None:
            raise ValueError("reduced diagram mismatch")
        raise ValueError("node %d: child %d is not the %d-smoothing"
                         % (parent, r, r))

    # node i's reduced diagram, from its first parent, until its
    # children are derived; the root is node 0, or a leaf without nodes
    derived = [derive(root, 0 if nodes else "leaf")]
    derived += [None] * (len(nodes) - 1)
    for i in range(len(nodes)):
        s, derived[i] = derived[i], None
        if s is None:
            raise ValueError("node %d has no parent" % i)
        _, det, c, *kids = nodes[i]
        if not s.is_alternating():
            got = goeritz_det(checkerboard(s)[0])
            if got != det:
                raise ValueError("stored det %r != %r" % (det, got))
        for r, k in enumerate(kids):
            reduced = derive(s.smooth(c, r, untwist=True), k, i, r)
            if k != "leaf" and derived[k] is None:
                derived[k] = reduced
    for i in reversed(range(len(nodes))):
        _, det, _, *kids = nodes[i]
        d0, d1 = (1 if k == "leaf" else nodes[k][1] for k in kids)
        if d0 < 1 or d1 < 1 or d0 + d1 != det:
            raise ValueError("determinant additivity fails at node %d: "
                             "%r + %r against %r" % (i, d0, d1, det))
    root_det = nodes[0][1] if nodes else 1
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


def kanenobu_obstruction(p: int, q: int) -> KanenobuVerdict:
    """NotQA exactly when |p|+|q| >= 19 or |p+q| > 6; also reports
    whether the generic obstruction battery reaches the same status on
    the closed-form polynomial with det 25."""
    status = NOTQA if (abs(p) + abs(q) >= 19 or abs(p + q) > 6) \
        else INCONCLUSIVE
    verdict = obstruct(kanenobu_jones(p, q), 25, prime=True)
    return KanenobuVerdict(status=status, agrees=(verdict.status == status))

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
import os
from dataclasses import dataclass, field

from .diagram import Diagram, SplitDiagram, parse_pd
from .bracket import determinant as bracket_determinant
from .bracket import jones
from .laurent import HalfLaurent, ZeroPolynomial, analyze, monomial_quotient
from .tait import goeritz_det, smoothing_dets
# certify and replay read only the black graph of each node; the call
# keeps the name checkerboard, under which perfbench's tait.checkerboard
# span counts it
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

    Collects every firing rule, in order: breadth bound against the
    determinant; any gap when the caller asserts a prime link and V is
    not +-t^r V(T(2,det)) nor that of its mirror, so the link is not a
    (2,n) torus link; more than one gap without Hopf-sum structure;
    small breadth with a determinant other than 1, 2, 3; broken sign
    alternation.
    """
    if v.is_zero():
        raise ZeroPolynomial("the zero polynomial is not a Jones polynomial")
    if det < 1:
        raise ValueError("det must be a positive integer")
    rep = analyze(v, step2=2)
    reasons = []
    if rep.breadth2 > 2 * det:
        reasons.append(("breadth", "breadth exceeds the determinant",
                        {"breadth2": rep.breadth2, "det": det}))
    if prime and rep.gap_count() >= 1:
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
        power = HalfLaurent.one()
        for _ in range(k):
            power = power * HOPF_JONES
        if monomial_quotient(v, power) is None:
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

    @classmethod
    def default(cls) -> "Budget":
        nodes = os.environ.get("QALT_BUDGET_NODES")
        if nodes is None:
            return cls()
        if not nodes.strip().isdecimal():
            raise ValueError("QALT_BUDGET_NODES must be a non-negative "
                             "integer, got %r" % nodes)
        return cls(max_nodes=int(nodes))


class _NotPlainJSON(Exception):
    pass


_json_str = json.encoder.encode_basestring_ascii
_JSON_CONST = {True: "true", False: "false", None: "null"}


def _write_json(o, emit, nl):
    """Emit o as json.dumps(o, indent=2) does, nl being a newline and the
    indent of o's own line. Anything but exact dicts with str keys, lists,
    str, int, bool and None raises _NotPlainJSON."""
    t = type(o)
    if t is str:
        emit(_json_str(o))
    elif t is int:
        emit(int.__repr__(o))
    elif t is bool or o is None:
        emit(_JSON_CONST[o])
    elif t is dict:
        if not o:
            emit("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in o.items():
            if type(k) is not str:
                raise _NotPlainJSON
            emit(sep + _json_str(k) + ": ")
            _write_json(v, emit, inner)
            sep = "," + inner
        emit(nl + "}")
    elif t is list:
        if not o:
            emit("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            emit(sep)
            _write_json(v, emit, inner)
            sep = "," + inner
        emit(nl + "]")
    else:
        raise _NotPlainJSON


@dataclass(frozen=True)
class Certificate:
    root: Diagram
    tree: dict

    def to_json(self) -> str:
        """json.dumps(self.tree, indent=2), written without the pure-Python
        encoder that json uses whenever indent is set."""
        out = []
        try:
            _write_json(self.tree, out.append, "\n")
        except (_NotPlainJSON, RecursionError):
            # floats, tuples, subclasses, non-str keys, cycles: json.dumps
            # writes them, or raises the exception json raises
            return json.dumps(self.tree, indent=2)
        return "".join(out)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        tree = json.loads(text)
        _check_node(tree)
        return cls(root=parse_pd(tree["pd"]), tree=tree)


@dataclass(frozen=True)
class Unknown:
    reason: str  # "budget" or "exhausted"


class _BudgetExceeded(Exception):
    pass


def certify(d: Diagram, budget: Budget = None):
    """Bounded search for a quasi-alternating certificate.

    At each node the diagram is simplified; a 0-crossing unknot is a
    leaf. Otherwise crossings are tried in ascending order: a crossing
    qualifies when both smoothings have positive determinants adding up
    to the parent's, and both children certify recursively. Returns the
    first Certificate in this deterministic order, or Unknown("budget")
    / Unknown("exhausted")."""
    if budget is None:
        budget = Budget.default()
    if d.component_count == 0 or not d.is_connected():
        raise SplitDiagram("certification needs a connected nonempty diagram")
    memo = {}
    counter = [0]

    def rec(dd: Diagram, det: int | None, depth: int):
        # det is the parent's value for this smoothing, None at the root;
        # R1/R2 moves preserve it
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
        g = checkerboard(s)
        if det is None:
            det = goeritz_det(g)
        if det < 2:
            # a 1-determinant diagram that does not simplify away is
            # not provably the unknot; additivity needs det >= 2 anyway
            return None
        for c in range(len(s.crossings)):
            det0, det1 = smoothing_dets(g, c)
            if det0 < 1 or det1 < 1 or det0 + det1 != det:
                continue
            n0 = rec(s.smooth(c, 0), det0, depth + 1)
            if n0 is None:
                continue
            n1 = rec(s.smooth(c, 1), det1, depth + 1)
            if n1 is None:
                continue
            core = {"det": det, "reduced_pd": key, "crossing": c,
                    "children": [n0, n1]}
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
    an object with a string "pd" and a "det"; unless it is a leaf, also
    a string "reduced_pd", a "crossing" and a list of two children."""
    if not isinstance(node, dict) or not isinstance(node.get("pd"), str):
        raise ValueError("certificate node needs a string \"pd\"")
    if "det" not in node:
        raise ValueError("certificate node has no \"det\"")
    if node.get("leaf"):
        return
    if not isinstance(node.get("reduced_pd"), str) or "crossing" not in node:
        raise ValueError("internal node needs a string \"reduced_pd\" "
                         "and a \"crossing\"")
    kids = node.get("children")
    if not isinstance(kids, list) or len(kids) != 2:
        raise ValueError("internal node needs two children")


def replay_certificate(cert) -> bool:
    """Re-verify a certificate from scratch; raises ValueError on any
    broken condition, including root determinant against the bracket
    route.

    Each distinct node is verified once. An occurrence equal, own "pd"
    included, to a node that already passed is accepted at once: the
    root's diagram is parsed from its text and every child's text was
    checked against its smoothing, so that text fixes the diagram, and
    the diagram and the node fix every check. Any other occurrence is
    reduced and compared with its "reduced_pd"; one equal, apart from
    its "pd", to a node that already passed under the same "reduced_pd"
    is accepted without repeating the rest, since the reduced diagram is
    determined by that text. A copy that differs anywhere else is checked
    in full, so the same trees are accepted and rejected, with the same
    first error, as when every occurrence is checked."""
    tree = cert.tree if isinstance(cert, Certificate) else cert
    _check_node(tree)
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

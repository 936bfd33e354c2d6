"""Command-line front end.

Subcommands map one-to-one onto the library: jones, bracket, gamma,
goeritz, det, analyze, obstruct, certify, kanenobu, batch. Each is
declared once, in ``_COMMANDS``, and its handler returns the JSON
payload, the text lines and, when not 0, the exit code; ``main`` alone
writes output and errors. Diagrams come in as PD text or a JSON array of
4-tuples; gamma and goeritz also accept a signed edge list. Exit codes:
0 success, 1 input error, 2 no certificate found: certify's search ran
out of budget or tried every crossing in vain ("Unknown").
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import laurent
from .bracket import bracket_result, kauffman_bracket
from .diagram import NoEmbedding, parse_pd
from .laurent import _half, analyze
from .qa import (INCONCLUSIVE, NOTQA, Budget, Unknown, certify, kanenobu_jones,
                 kanenobu_obstruction, obstruct)
from .tait import checkerboard, gamma, goeritz_det, parse_edgelist


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for a search
    # that finds no certificate here, so usage problems become exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(1)


def _gap_fields(rep) -> dict:
    return {
        "gap_count": rep.gap_count(),
        "gaps": [{"start": _half(start2), "length": length}
                 for start2, length in rep.gaps],
        "alternating": rep.alternating,
    }


def _gaps_line(p: dict) -> str:
    return "gaps: %d %s" % (p["gap_count"],
                            [(g["start"], g["length"]) for g in p["gaps"]])


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError("cannot read %s: %s" % (path, exc)) from None


def _diagram(text: str):
    """The diagram of PD text, which must be planar: parse_pd takes a
    code that fixes no planar embedding (Diagram.check_planar). A batch
    record names an error by its type, and keeps naming this one
    ValueError."""
    d = parse_pd(text)
    try:
        d.check_planar()
    except NoEmbedding as exc:
        raise ValueError(str(exc)) from None
    return d


def _read_diagram(args):
    return _diagram(args.pd if args.file is None else _read(args.file))


def _read_graph(args):
    """Black checkerboard graph from a PD, or a literal edge list; with
    --white, the white graph, which an edge list does not carry."""
    if args.edgelist is None:
        d = _read_diagram(args)
        return checkerboard(d)[args.white]
    g = parse_edgelist(_read(args.edgelist))
    if args.white:
        raise ValueError("graph carries no embedding")
    return g


def _jones_payload(r, rep) -> dict:
    """The fields of a BracketResult and the GapReport of its V."""
    return {
        "jones": r.jones.render("t"),
        "det": r.determinant,
        "writhe": r.writhe,
        "breadth": _half(rep.breadth2),
        **_gap_fields(rep),
    }


def _cmd_jones(args):
    r = bracket_result(_read_diagram(args))
    p = _jones_payload(r, analyze(r.jones, step2=2))
    return p, ["jones: %s" % p["jones"], "det: %d" % p["det"],
               "breadth: %s" % p["breadth"], _gaps_line(p)]


def _cmd_bracket(args):
    d = _read_diagram(args)
    p = {"bracket": kauffman_bracket(d).render("A"), "writhe": d.writhe()}
    return p, ["bracket: %s" % p["bracket"], "writhe: %d" % p["writhe"]]


def _cmd_gamma(args):
    g = _read_graph(args)
    p = {"gamma": gamma(g).render("A"), "edges": len(g.edges),
         "vertices": g.vertex_count}
    return p, ["gamma: %s" % p["gamma"]]


def _cmd_goeritz(args):
    p = {"goeritz_det": goeritz_det(_read_graph(args))}
    return p, ["goeritz det: %d" % p["goeritz_det"]]


def _cmd_det(args):
    p = {"det": bracket_result(_read_diagram(args)).determinant}
    return p, ["det: %d" % p["det"]]


def _cmd_analyze(args):
    if args.poly is None:
        if args.var is not None:
            raise ValueError("--var goes with --poly; a diagram gives "
                             "its Jones polynomial in t")
        f, var = bracket_result(_read_diagram(args)).jones, "t"
    else:
        var = "t" if args.var is None else args.var
        f = laurent.parse(args.poly, var=var)
    rep = analyze(f, step2=args.step2)
    p = {
        "poly": f.render(var),
        "breadth": _half(rep.breadth2),
        "step": _half(rep.step2),
        **_gap_fields(rep),
    }
    return p, ["poly: %s" % p["poly"],
               "breadth: %s (step %s)" % (p["breadth"], p["step"]),
               _gaps_line(p), "alternating: %s" % p["alternating"]]


def _cmd_obstruct(args):
    if args.poly is None:
        if args.det is not None:
            raise ValueError("--det goes with --poly; a diagram gives "
                             "its own determinant")
        r = bracket_result(_read_diagram(args))
        v, det = r.jones, r.determinant
    elif args.det is None:
        raise ValueError("obstruct --poly needs --det")
    else:
        v, det = laurent.parse(args.poly, var="t"), args.det
    out = obstruct(v, det, prime=args.prime)
    p = {
        "status": out.status,
        "reasons": [{"rule": rid, "statement": stmt, "witness": wit}
                    for rid, stmt, wit in out.reasons],
        "assumptions": out.assumptions,
        "det": det,
    }
    return p, ["status: %s" % out.status] + [
        "  %s: %s" % (rid, stmt) for rid, stmt, _ in out.reasons]


def _budget_flags(args) -> dict:
    """The budget flags given, by Budget field."""
    return {name: getattr(args, name) for name in Budget.__slots__
            if getattr(args, name) is not None}


def _cmd_certify(args):
    out = certify(_read_diagram(args), Budget(**_budget_flags(args)))
    if isinstance(out, Unknown):
        return ({"status": "Unknown", "reason": out.reason},
                ["status: Unknown (%s)" % out.reason], 2)
    # to_json is compact; the terminal gets the indented layout, written
    # only when the text is printed
    return ({"status": "Certified", "certificate": out.tree},
            (json.dumps(tree, indent=2) for tree in [out.tree]))


def _cmd_kanenobu(args):
    v = kanenobu_jones(args.p, args.q)
    kv = kanenobu_obstruction(args.p, args.q)
    p = {
        "p": args.p, "q": args.q,
        "jones": v.render("t"),
        "det": v.abs_at_minus_one(),
        "status": kv.status,
        "battery_agrees": kv.agrees,
    }
    lines = ["jones: %s" % p["jones"], "det: %d" % p["det"],
             "status: %s (battery agrees: %s)" % (kv.status, kv.agrees)]
    if args.analyze:
        rep = analyze(v, step2=2)
        p.update(breadth=_half(rep.breadth2), **_gap_fields(rep))
        lines += ["breadth: %s" % p["breadth"], _gaps_line(p)]
    return p, lines


def _batch_line(idx, line, args, budget):
    text, _, comment = line.partition("#")
    name = comment.strip() or "line-%d" % idx
    t0 = time.monotonic()
    record = {"name": name}
    try:
        d = _diagram(text)
        r = bracket_result(d)
        # the verdict carries the gap report its rules read
        v = obstruct(r.jones, r.determinant, prime=args.prime)
        record.update(_jones_payload(r, v.report))
        record["verdict"] = v.status
        if v.status == NOTQA:
            record["reasons"] = [{"rule": rid, "statement": stmt}
                                 for rid, stmt, _ in v.reasons]
        if args.certify:
            out = certify(d, budget)
            if isinstance(out, Unknown):
                record["certificate"] = None
                record["certify_status"] = "Unknown:" + out.reason
            else:
                record["certificate"] = out.tree
                record["certify_status"] = "Certified"
    except Exception as exc:
        record["error"] = "%s: %s" % (type(exc).__name__, exc)
    record["ms"] = round(1000 * (time.monotonic() - t0), 3)
    return record


def _batch_text(records, summary):
    for r in records:
        if "error" in r:
            yield "%-16s ERROR %s" % (r["name"], r["error"])
            continue
        extra = ""
        if "certify_status" in r:
            extra = " certify=%s" % r["certify_status"]
        yield ("%-16s det=%-3d breadth=%-5s gaps=%d verdict=%s%s"
               % (r["name"], r["det"], r["breadth"], r["gap_count"],
                  r["verdict"], extra))
    yield ("entries=%(entries)d errors=%(errors)d notqa=%(notqa)d "
           "inconclusive=%(inconclusive)d" % summary)


def _cmd_batch(args):
    flags = _budget_flags(args)
    if flags and not args.certify:
        raise ValueError("batch's budget flags need --certify")
    budget = Budget(**flags)
    records = [_batch_line(idx, line, args, budget)
               for idx, line in enumerate(_read(args.path).splitlines(), 1)
               if line.partition("#")[0].strip()]
    summary = {
        "entries": len(records),
        "errors": sum(1 for r in records if "error" in r),
        "notqa": sum(1 for r in records if r.get("verdict") == NOTQA),
        "inconclusive": sum(1 for r in records
                            if r.get("verdict") == INCONCLUSIVE),
    }
    return ({"entries": records, "summary": summary},
            _batch_text(records, summary))


_INPUT_HELP = {
    "--pd": "inline PD text or JSON array",
    "--file": "file containing a PD code",
    "--edgelist": "file with 'u v +' signed edges (0-based)",
    "--poly": "inline Laurent polynomial",
}
_DIAGRAM = ("--pd", "--file")
_GRAPH = _DIAGRAM + ("--edgelist",)
_FLAG = {"action": "store_true"}
_WHITE = ("--white", {**_FLAG, "help": "use the white checkerboard graph"})
_BUDGET = tuple(("--" + name.replace("_", "-"), {"type": int})
                for name in Budget.__slots__)

# name, help, handler, one-of inputs (required when any), other arguments
_COMMANDS = (
    ("jones", "Jones polynomial and gap structure", _cmd_jones, _DIAGRAM, ()),
    ("bracket", "Kauffman bracket in A", _cmd_bracket, _DIAGRAM, ()),
    ("gamma", "Kauffman's subset expansion Gamma", _cmd_gamma, _GRAPH,
     (_WHITE,)),
    ("goeritz", "Goeritz determinant", _cmd_goeritz, _GRAPH, (_WHITE,)),
    ("det", "link determinant |V(-1)|", _cmd_det, _DIAGRAM, ()),
    ("analyze", "breadth/gap/alternation report", _cmd_analyze,
     ("--poly",) + _DIAGRAM,
     (("--var", {"help": "variable of --poly (default t)"}),
      ("--step2", {"type": int, "default": 2,
                   "help": "lattice step in half-exponent units "
                           "(default 2)"}))),
    ("obstruct", "necessary-condition battery", _cmd_obstruct,
     _DIAGRAM + ("--poly",),
     (("--det", {"type": int, "help": "determinant, with --poly"}),
      ("--prime", {**_FLAG, "help": "caller asserts the link is prime"}))),
    ("certify", "search for a membership certificate", _cmd_certify,
     _DIAGRAM, _BUDGET),
    ("kanenobu", "closed-form K(p,q) facts", _cmd_kanenobu, (),
     (("p", {"type": int}), ("q", {"type": int}), ("--analyze", _FLAG))),
    ("batch", "report over a file of PD codes", _cmd_batch, (),
     (("path", {}), ("--prime", _FLAG), ("--certify", _FLAG)) + _BUDGET),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then shared. A subcommand
    stores its handler's name, not the function, so main finds whatever
    the module holds under that name when it runs."""
    parser = _Parser(prog="qalt",
                     description="Jones polynomials, subset expansions, and "
                                 "quasi-alternating obstructions")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text, handler, inputs, others in _COMMANDS:
        s = subs.add_parser(name, help=text)
        s.add_argument("--json", action="store_true",
                       help="emit JSON instead of text")
        if inputs:
            src = s.add_mutually_exclusive_group(required=True)
            for flag in inputs:
                src.add_argument(flag, help=_INPUT_HELP[flag])
        for flag, kw in others:
            s.add_argument(flag, **kw)
        s.set_defaults(handler=handler.__name__)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        payload, lines, *code = globals()[args.handler](args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    return code[0] if code else 0


if __name__ == "__main__":
    sys.exit(main())

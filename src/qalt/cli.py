"""Command-line front end.

Subcommands map one-to-one onto the library: jones, bracket, gamma,
goeritz, det, analyze, obstruct, certify, kanenobu, batch. Diagrams
come in as PD text or a JSON array of 4-tuples; gamma and goeritz also
accept a signed edge list. Exit codes: 0 success, 1 input error,
2 certification budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from fractions import Fraction

from . import laurent
from .bracket import bracket_result, jones, kauffman_bracket
from .diagram import parse_pd
from .laurent import analyze
from .qa import (INCONCLUSIVE, NOTQA, Budget, Unknown, certify, kanenobu_jones,
                 kanenobu_obstruction, obstruct)
from .tait import black_graph, dual, gamma, goeritz_det, parse_edgelist


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for budget
    # exhaustion here, so usage problems become exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(1)


def _frac(e2: int) -> str:
    return str(Fraction(e2, 2))


def _gap_fields(rep) -> dict:
    return {
        "gap_count": rep.gap_count(),
        "gaps": [{"start": _frac(start2), "length": length}
                 for start2, length in rep.gaps],
        "alternating": rep.alternating,
    }


def _gaps_line(p: dict) -> str:
    return "gaps: %d %s" % (p["gap_count"],
                            [(g["start"], g["length"]) for g in p["gaps"]])


def _read_diagram(args):
    if getattr(args, "file", None):
        with open(args.file) as fh:
            return parse_pd(fh.read())
    return parse_pd(args.pd)


def _read_graph(args):
    """Checkerboard graph from a PD, or a literal edge list; with --white,
    its planar dual, which an edge list does not carry."""
    if getattr(args, "edgelist", None):
        with open(args.edgelist) as fh:
            g = parse_edgelist(fh.read())
    else:
        g = black_graph(_read_diagram(args))
    return dual(g) if getattr(args, "white", False) else g


def _emit(args, payload: dict, text_lines: list):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _jones_payload(d):
    r = bracket_result(d)
    rep = analyze(r.jones, step2=2)
    payload = {
        "jones": r.jones.render("t"),
        "det": r.determinant,
        "writhe": r.writhe,
        "breadth": _frac(rep.breadth2),
        **_gap_fields(rep),
    }
    return payload, r.jones


def _cmd_jones(args) -> int:
    p, _ = _jones_payload(_read_diagram(args))
    _emit(args, p, [
        "jones: %s" % p["jones"],
        "det: %d" % p["det"],
        "breadth: %s" % p["breadth"],
        _gaps_line(p),
    ])
    return 0


def _cmd_bracket(args) -> int:
    d = _read_diagram(args)
    b = kauffman_bracket(d)
    p = {"bracket": b.render("A"), "writhe": d.writhe()}
    _emit(args, p, ["bracket: %s" % p["bracket"],
                    "writhe: %d" % p["writhe"]])
    return 0


def _cmd_gamma(args) -> int:
    g = _read_graph(args)
    poly = gamma(g)
    p = {"gamma": poly.render("A"), "edges": len(g.edges),
         "vertices": g.vertex_count}
    _emit(args, p, ["gamma: %s" % p["gamma"]])
    return 0


def _cmd_goeritz(args) -> int:
    g = _read_graph(args)
    p = {"goeritz_det": goeritz_det(g)}
    _emit(args, p, ["goeritz det: %d" % p["goeritz_det"]])
    return 0


def _cmd_det(args) -> int:
    d = _read_diagram(args)
    p = {"det": jones(d).abs_at_minus_one()}
    _emit(args, p, ["det: %d" % p["det"]])
    return 0


def _cmd_analyze(args) -> int:
    if args.poly:
        f = laurent.parse(args.poly, var=args.var)
    else:
        f = jones(_read_diagram(args))
    rep = analyze(f, step2=args.step2)
    p = {
        "poly": f.render(args.var),
        "breadth": _frac(rep.breadth2),
        "step": _frac(rep.step2),
        **_gap_fields(rep),
    }
    _emit(args, p, [
        "poly: %s" % p["poly"],
        "breadth: %s (step %s)" % (p["breadth"], p["step"]),
        _gaps_line(p),
        "alternating: %s" % p["alternating"],
    ])
    return 0


def _verdict_payload(v) -> dict:
    return {
        "status": v.status,
        "reasons": [{"rule": rid, "statement": stmt, "witness": wit}
                    for rid, stmt, wit in v.reasons],
        "assumptions": v.assumptions,
    }


def _cmd_obstruct(args) -> int:
    if args.poly:
        if args.det is None:
            print("obstruct --poly needs --det", file=sys.stderr)
            return 1
        v = laurent.parse(args.poly, var="t")
        det = args.det
    else:
        d = _read_diagram(args)
        v = jones(d)
        det = v.abs_at_minus_one()
    out = obstruct(v, det, prime=args.prime)
    p = _verdict_payload(out)
    p["det"] = det
    lines = ["status: %s" % out.status]
    for r in p["reasons"]:
        lines.append("  %s: %s" % (r["rule"], r["statement"]))
    _emit(args, p, lines)
    return 0


def _budget(args) -> Budget:
    given = {f.name: getattr(args, f.name) for f in fields(Budget)}
    return Budget(**{f: v for f, v in given.items() if v is not None})


def _cmd_certify(args) -> int:
    d = _read_diagram(args)
    out = certify(d, _budget(args))
    if isinstance(out, Unknown):
        p = {"status": "Unknown", "reason": out.reason}
        _emit(args, p, ["status: Unknown (%s)" % out.reason])
        return 2
    if args.json:
        print(json.dumps({"status": "Certified", "certificate": out.tree},
                         indent=2))
    else:
        # to_json is compact; the terminal gets the indented layout
        print(json.dumps(out.tree, indent=2))
    return 0


def _cmd_kanenobu(args) -> int:
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
        p.update(breadth=_frac(rep.breadth2), **_gap_fields(rep))
        lines += ["breadth: %s" % p["breadth"], _gaps_line(p)]
    _emit(args, p, lines)
    return 0


def _batch_line(idx, line, args):
    text, _, comment = line.partition("#")
    name = comment.strip() or "line-%d" % idx
    t0 = time.monotonic()
    record = {"name": name}
    try:
        d = parse_pd(text)
        payload, poly = _jones_payload(d)
        record.update(payload)
        v = obstruct(poly, record["det"], prime=args.prime)
        record["verdict"] = v.status
        if v.status == NOTQA:
            record["reasons"] = [{"rule": rid, "statement": stmt}
                                 for rid, stmt, _ in v.reasons]
        if args.certify:
            out = certify(d, _budget(args))
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


def _cmd_batch(args) -> int:
    try:
        with open(args.path) as fh:
            raw = fh.read().splitlines()
    except OSError as exc:
        print("cannot read %s: %s" % (args.path, exc), file=sys.stderr)
        return 1
    jobs = [(i + 1, line) for i, line in enumerate(raw)
            if line.partition("#")[0].strip()]
    records = [_batch_line(idx, line, args) for idx, line in jobs]
    summary = {
        "entries": len(records),
        "errors": sum(1 for r in records if "error" in r),
        "notqa": sum(1 for r in records if r.get("verdict") == NOTQA),
        "inconclusive": sum(1 for r in records
                            if r.get("verdict") == INCONCLUSIVE),
    }
    report = {"entries": records, "summary": summary}
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for r in records:
            if "error" in r:
                print("%-16s ERROR %s" % (r["name"], r["error"]))
            else:
                extra = ""
                if "certify_status" in r:
                    extra = " certify=%s" % r["certify_status"]
                print("%-16s det=%-3d breadth=%-5s gaps=%d verdict=%s%s"
                      % (r["name"], r["det"], r["breadth"],
                         r["gap_count"], r["verdict"], extra))
        print("entries=%(entries)d errors=%(errors)d notqa=%(notqa)d "
              "inconclusive=%(inconclusive)d" % summary)
    return 0


def _add_common(sub):
    sub.add_argument("--json", action="store_true",
                     help="emit JSON instead of text")


def _add_diagram_input(sub, edgelist=False):
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--pd", help="inline PD text or JSON array")
    src.add_argument("--file", help="file containing a PD code")
    if edgelist:
        src.add_argument("--edgelist",
                         help="file with 'u v +' signed edges (0-based)")
        sub.add_argument("--white", action="store_true",
                         help="use the white checkerboard graph")


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


_count.__name__ = "non-negative int"  # argparse names the type by this


def _add_budget_flags(sub):
    sub.add_argument("--max-depth", type=_count, default=None)
    sub.add_argument("--max-nodes", type=_count, default=None)
    sub.add_argument("--simplify-passes", type=_count, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qalt",
                     description="Jones polynomials, tree expansions, and "
                                 "quasi-alternating obstructions")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("jones", help="Jones polynomial and gap structure")
    _add_common(s)
    _add_diagram_input(s)
    s.set_defaults(func=_cmd_jones)

    s = subs.add_parser("bracket", help="Kauffman bracket in A")
    _add_common(s)
    _add_diagram_input(s)
    s.set_defaults(func=_cmd_bracket)

    s = subs.add_parser("gamma", help="spanning-tree polynomial")
    _add_common(s)
    _add_diagram_input(s, edgelist=True)
    s.set_defaults(func=_cmd_gamma)

    s = subs.add_parser("goeritz", help="Goeritz determinant")
    _add_common(s)
    _add_diagram_input(s, edgelist=True)
    s.set_defaults(func=_cmd_goeritz)

    s = subs.add_parser("det", help="link determinant |V(-1)|")
    _add_common(s)
    _add_diagram_input(s)
    s.set_defaults(func=_cmd_det)

    s = subs.add_parser("analyze", help="breadth/gap/alternation report")
    _add_common(s)
    src = s.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", help="inline Laurent polynomial")
    src.add_argument("--pd", help="diagram whose Jones polynomial to analyze")
    src.add_argument("--file", help="file containing a PD code")
    s.add_argument("--var", default="t")
    s.add_argument("--step2", type=int, default=2,
                   help="lattice step in half-exponent units (default 2)")
    s.set_defaults(func=_cmd_analyze)

    s = subs.add_parser("obstruct", help="necessary-condition battery")
    _add_common(s)
    src = s.add_mutually_exclusive_group(required=True)
    src.add_argument("--pd")
    src.add_argument("--file")
    src.add_argument("--poly", help="Jones polynomial in t (needs --det)")
    s.add_argument("--det", type=int, default=None)
    s.add_argument("--prime", action="store_true",
                   help="caller asserts the link is prime")
    s.set_defaults(func=_cmd_obstruct)

    s = subs.add_parser("certify", help="search for a membership certificate")
    _add_common(s)
    _add_diagram_input(s)
    _add_budget_flags(s)
    s.set_defaults(func=_cmd_certify)

    s = subs.add_parser("kanenobu", help="closed-form K(p,q) facts")
    _add_common(s)
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)
    s.add_argument("--analyze", action="store_true")
    s.set_defaults(func=_cmd_kanenobu)

    s = subs.add_parser("batch", help="report over a file of PD codes")
    _add_common(s)
    s.add_argument("path")
    s.add_argument("--prime", action="store_true")
    s.add_argument("--certify", action="store_true")
    _add_budget_flags(s)
    s.set_defaults(func=_cmd_batch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

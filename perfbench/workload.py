"""One workload run, in its own process.

Started by ``run.py`` with qalt on ``PYTHONPATH``. Reads the generated
inputs from ``--dir``, runs the timed closed loop (one caller, one
link at a time) for ``--seconds``, or over exactly ``--limit`` links,
then checks every output untimed and writes the raw measurements to
``--out`` as JSON. With ``--trace 1`` the loop runs with spans around
the calls into each qalt module. Outputs that wait for the untimed
checks go to new files under ``--dir``, not into memory, so the peak
RSS read after the loop does not grow with the number of links done.
The names carry the trace flag: the untraced rerun of a traced run
must not overwrite the files of the first, because a file truncated
and rewritten can be flushed to disk on close, which stalls the loop.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import time
from pathlib import Path

import qalt.cli
import qalt.qa
from qalt import (Budget, Certificate, HalfLaurent, bracket_state_sum,
                  checkerboard, goeritz_det, parse, parse_pd)

from spec import STATE_SUM_MAX_CROSSINGS, WORKLOADS
from spans import Tracer, instrument


def read_entries(path) -> list:
    """(name, PD text) pairs from lines "PD # name"."""
    out = []
    for line in Path(path).read_text().splitlines():
        pd, _, name = line.partition("#")
        out.append((name.strip(), pd.strip()))
    return out


def _stop(done: int, start: float, seconds: float, limit, min_links: int):
    if limit is not None:
        return done >= limit
    return done >= min_links and time.perf_counter() - start >= seconds


def _ran_out(args, elapsed: float) -> bool:
    """The loop ended because the generated inputs ran out, before
    --seconds had passed."""
    return args.limit is None and elapsed < args.seconds


def run_table(args) -> dict:
    chunks = [(path, len(read_entries(path)))
              for path in sorted(Path(args.dir).glob("table-*.txt"))]
    outputs = []
    done = 0
    start = time.perf_counter()
    for path, size in chunks:
        if _stop(done, start, args.seconds, args.limit, 0):
            break
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = qalt.cli.main(["batch", str(path), "--json"])
        out = path.with_suffix(".out-t%d.json" % args.trace)
        out.write_text(buf.getvalue())
        outputs.append((str(path), rc, str(out)))
        done += size
    elapsed = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"attempted": done, "elapsed_s": elapsed, "rss_kib": rss,
            "ran_out": _ran_out(args, elapsed), "outputs": outputs}


def check_table(res, fail) -> list:
    """Every record against the Goeritz determinant and, up to
    STATE_SUM_MAX_CROSSINGS, the Jones polynomial of the state sum."""
    link_ms = []
    for path, rc, out in res.pop("outputs"):
        entries = read_entries(path)
        text = Path(out).read_text()
        if rc != 0:
            for name, _ in entries:
                fail(name, "batch exit code %r" % rc)
            continue
        records = json.loads(text)["entries"]
        if [r["name"] for r in records] != [n for n, _ in entries]:
            for name, _ in entries:
                fail(name, "batch records do not match the input lines")
            continue
        for (name, pd), rec in zip(entries, records):
            if "error" in rec:
                fail(name, rec["error"])
                continue
            link_ms.append(rec["ms"])
            d = parse_pd(pd)
            det = goeritz_det(checkerboard(d)[0])
            if rec["det"] != det:
                fail(name, "det %r, Goeritz %r" % (rec["det"], det))
            if len(d.crossings) <= STATE_SUM_MAX_CROSSINGS:
                want = state_sum_jones(d)
                if want is None or parse(rec["jones"], var="t") != want:
                    fail(name, "jones %s disagrees with the state sum"
                         % rec["jones"])
    return link_ms


def state_sum_jones(d):
    """Jones polynomial from the 2^n state sum: (-A)^(-3w) <D> with
    t^(1/2) = A^(-2); None when the support is off the t lattice."""
    w = d.writhe()
    b = bracket_state_sum(d).shift2(-6 * w)
    if w % 2:
        b = -b
    terms = {}
    for e2, c in b.items2():
        if e2 % 4:
            return None
        terms[-e2 // 4] = c
    return HalfLaurent(terms)


def _tree_nodes(tree) -> tuple:
    """(internal nodes, distinct reduced_pd) of a certificate tree."""
    count = 0
    keys = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if "reduced_pd" in node:
            count += 1
            keys.add(node["reduced_pd"])
            stack.extend(node["children"])
    return count, len(keys)


def _record_shape(res, js: str, cert):
    """Append a certificate's JSON size and tree node counts."""
    n, u = _tree_nodes(cert.tree)
    res["cert_bytes"].append(len(js.encode()))
    res["cert_nodes"].append(n)
    res["cert_unique"].append(u)


def run_certify(args, fail, tracer) -> dict:
    """The closed loop. certify-qa replays each certificate in the loop
    and keeps only its size and node counts; certify-search writes each
    certificate to --dir/certs-t<trace> for check_certify to replay."""
    spec = WORKLOADS[args.workload]
    budget = Budget(**spec["budget"])
    replay_in_loop = args.workload == "certify-qa"
    items = [(name, parse_pd(pd)) for name, pd in
             read_entries(Path(args.dir) / "inputs.txt")]
    cert_dir = Path(args.dir) / ("certs-t%d" % args.trace)
    cert_dir.mkdir()
    link_ms, replay_ms, budget_s = [], [], 0.0
    outcomes = {"certified": 0, "exhausted": 0, "budget": 0}
    saved = []
    shape = {"cert_bytes": [], "cert_nodes": [], "cert_unique": []}
    start = time.perf_counter()
    for name, d in items:
        if _stop(len(link_ms), start, args.seconds, args.limit,
                 spec["min_links"]):
            break
        if tracer is not None:
            tracer.link = name
        t0 = time.perf_counter()
        js = None
        try:
            out = qalt.qa.certify(d, budget)
            if isinstance(out, Certificate):
                js = out.to_json()
            t1 = time.perf_counter()
            if js is not None and replay_in_loop:
                cert = Certificate.from_json(js)
                qalt.qa.replay_certificate(cert)
        except Exception as exc:  # a failed link is counted, not fatal
            t1 = time.perf_counter()
            fail(name, "%s: %s" % (type(exc).__name__, exc))
            out = None
        t2 = time.perf_counter()
        link_ms.append(1000 * (t1 - t0))
        if out is None:
            continue
        kind = "certified" if js is not None else out.reason
        outcomes[kind] += 1
        if kind == "budget":
            budget_s += t1 - t0
        if js is None:
            if args.workload == "certify-qa":
                fail(name, "alternating link not certified (%s)" % kind)
        elif replay_in_loop:
            replay_ms.append(1000 * (t2 - t1))
            _record_shape(shape, js, cert)
        else:
            (cert_dir / (name + ".json")).write_text(js)
            saved.append(name)
    elapsed = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"attempted": len(link_ms), "elapsed_s": elapsed, "rss_kib": rss,
            "ran_out": _ran_out(args, elapsed),
            "link_ms": link_ms, "replay_ms": replay_ms,
            "outcomes": outcomes, "budget_s": budget_s,
            "max_nodes": budget.max_nodes, "saved": saved, **shape}


def check_certify(res, fail, cert_dir: Path):
    """Replays the certificates the loop saved, recording their sizes
    and node counts."""
    for name in res.pop("saved"):
        js = (cert_dir / (name + ".json")).read_text()
        cert = Certificate.from_json(js)
        _record_shape(res, js, cert)
        try:
            qalt.qa.replay_certificate(cert)
        except Exception as exc:  # any exception is a failed replay
            fail(name, "certificate does not replay: %s: %s"
                 % (type(exc).__name__, exc))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    failed = {}

    def fail(name, why):
        failed.setdefault(name, why)

    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer)
    try:
        if args.workload == "table":
            res = run_table(args)
        else:
            res = run_certify(args, fail, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        res["layers"] = tracer.totals()
        res["spans"] = len(tracer.spans)
        tracer.write_spans(Path(args.dir) / "spans.jsonl")
    if args.workload == "table":
        res["link_ms"] = check_table(res, fail)
    else:
        check_certify(res, fail, Path(args.dir) / ("certs-t%d" % args.trace))
    res["failures"] = failed
    Path(args.out).write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

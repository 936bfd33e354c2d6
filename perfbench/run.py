"""qalt benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload table --seed 1 --seconds 50 --trace 0

Run from the root of a qalt checkout (it imports qalt from ``src``).
Generates the workload's inputs from the seed, measures set-up time in
fresh interpreters, runs the workload in a fresh process, checks every
output, prints every metric by name with its unit, and ends with one
JSON line {"correct", "attempted", "failed", "metrics"}. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reruns the workload with
spans around each qalt module and reports the per-layer metrics. The
JSON line holds the metrics ``BENCHMARK.json`` declares, with the units
it gives; the lines above it print the rest as well. Exits 1 when an
output is wrong and 2 when the run itself cannot complete. Scratch files
go to ``.bench_out/`` under the checkout. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import spec

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11
# Time for set-up probes, process start-up and the untimed checks on
# top of the timed loops. At --seconds 50 a traced table run spent 9 s
# outside its loops, and a traced certify-search run 56 s, most of it
# replaying certificates; its loops end early, when its 210 inputs run
# out after about 25 s each.
ALLOWANCE_S = 60


def child_env(root: Path) -> dict:
    """The workload's environment: qalt from src, no budget override,
    fixed hash seed."""
    env = dict(os.environ)
    env.pop("QALT_BUDGET_NODES", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(root / "src")
    return env


def write_inputs(workload: str, seed: int, out: Path, root: Path):
    """Generate the inputs and write them as "PD # name" lines: all of
    them to inputs.txt and, for the table, one file per batch call."""
    w = spec.WORKLOADS[workload]
    links = gen.links(w["family"], seed, w["links"], w["crossings"])
    lines = ["%s # %s" % (pd, name) for name, pd in links]
    if workload == "table":
        sys.path.insert(0, str(root / "src"))
        from qalt import corpus
        # the unknot's PD text is empty, which batch reads as no entry
        head = ["%s # corpus-%s" % (e.diagram.render(), e.name)
                for e in corpus.entries() if e.diagram.crossings]
        size = w["chunk"]
        for k in range(0, len(lines), size):
            chunk = lines[k:k + size]
            if k == 0:
                chunk = head + chunk
            (out / ("table-%03d.txt" % (k // size))).write_text(
                "\n".join(chunk) + "\n")
        lines = head + lines
    (out / "inputs.txt").write_text("\n".join(lines) + "\n")


def measure_setup(out: Path, env: dict) -> float:
    """Median over fresh interpreters of importing qalt and qalt.cli
    and parsing every input."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"),
             str(out / "inputs.txt")],
            env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def deadline_s(seconds: int, trace: int) -> float:
    """Every workload process must end this long after the command
    starts: a traced run times the loop twice, traced and untraced."""
    return (2 if trace else 1) * seconds + ALLOWANCE_S


def run_child(workload: str, out: Path, env: dict, seconds: float,
              trace: int, deadline: float, limit=None) -> dict:
    result = out / ("result-t%d.json" % trace)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--dir", str(out), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(result)]
    if limit is not None:
        cmd += ["--limit", str(limit)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError("workload process failed (exit %d):\n%s"
                           % (proc.returncode, proc.stderr))
    return json.loads(result.read_text())


def p50(values) -> float:
    # a run whose every link failed has no times; the failures report it
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return p50(values)
    return statistics.quantiles(values, n=10)[8]


def end_to_end(workload: str, res: dict, setup_s: float) -> dict:
    n = res["attempted"]
    m = {
        "setup_s": setup_s,
        "links_per_s": n / res["elapsed_s"],
        "link_ms_p50": p50(res["link_ms"]),
        "link_ms_p90": p90(res["link_ms"]),
        "peak_rss_mib": res["rss_kib"] / 1024,
        "fail_frac": len(res["failures"]) / n,
    }
    if workload in spec.CERTIFY:
        m["certified_frac"] = res["outcomes"]["certified"] / n
        sizes = res["cert_bytes"]
        m["cert_kib"] = statistics.mean(sizes) / 1024 if sizes else 0.0
    if workload == "certify-qa":
        m["replay_ms_p50"] = p50(res["replay_ms"])
    return m


def layer_metrics(workload: str, traced: dict, plain: dict) -> dict:
    """Per-layer metrics: spans from the traced run, outcome counts and
    timings of whole calls from the untraced run over the same links."""
    n = traced["attempted"]
    layers = traced["layers"]
    m = {}
    for name in spec.LAYER_FUNCTIONS:
        calls, self_ns, _ = layers.get(name, (0, 0, 0))
        m[name + ".calls"] = calls / n
        m[name + ".self_ms"] = self_ns / 1e6 / n
    m["bracket.brackets_per_link"] = m["bracket.kauffman_bracket.calls"]
    outcomes = plain.get("outcomes", {})
    tried = plain["attempted"] if workload in spec.CERTIFY else 0
    for kind in ("certified", "exhausted", "budget"):
        m["qa.outcome." + kind] = outcomes.get(kind, 0) / tried if tried \
            else 0.0
    m["qa.useful_ratio"] = m["qa.outcome.certified"]
    budget_s = plain.get("budget_s", 0.0)
    m["qa.budget_nodes_per_s"] = (
        plain["max_nodes"] * outcomes["budget"] / budget_s if budget_s
        else 0.0)
    nodes = plain.get("cert_nodes") or [0]
    unique = plain.get("cert_unique") or [0]
    m["qa.cert_nodes"] = statistics.mean(nodes)
    m["qa.cert_unique_nodes"] = statistics.mean(unique)
    m["trace.slowdown"] = (traced["elapsed_s"] / n) / \
        (plain["elapsed_s"] / plain["attempted"])
    return m


def layer_report(workload: str, traced: dict) -> list:
    """Self-time share per module and the dominant-layer check."""
    layers = traced["layers"]
    by_module = dict.fromkeys(spec.MODULES, 0)
    for name, (_, self_ns, _) in layers.items():
        by_module[name.split(".")[0]] += self_ns
    total = sum(by_module.values()) or 1
    share = {k: v / total for k, v in by_module.items()}
    lines = ["self-time share: " + " ".join(
        "%s=%.1f%%" % (k, 100 * v) for k, v in share.items())]

    def total_ms(name):
        return layers.get(name, (0, 0, 0))[2] / 1e6

    if workload == "table":
        ok = share["bracket"] + share["diagram"] > 0.5
        claim = "bracket + diagram hold most self time"
    elif workload == "certify-qa":
        replay, search = total_ms("qa.replay_certificate"), \
            total_ms("qa.certify")
        root = total_ms("bracket.determinant")
        ok = replay > search
        claim = ("replay outweighs the search (replay %.0f ms, of which "
                 "root bracket determinant %.0f ms; certify %.0f ms)"
                 % (replay, root, search))
    else:
        ok = (share["qa"] + share["diagram"] + share["tait"] > 0.5
              and share["bracket"] < 0.05)
        claim = "qa/diagram/tait hold most self time, bracket near zero"
    lines.append("dominant layer: %s: %s" % (
        claim, "confirmed" if ok else "NOT confirmed (see shares)"))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=spec.ALL)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "qalt" / "__init__.py").is_file() or \
            not (root / "BENCHMARK.json").is_file():
        print("perfbench: run from the root of a qalt checkout "
              "(no src/qalt or BENCHMARK.json here)", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + deadline_s(args.seconds, args.trace)
    out = root / ".bench_out" / ("%s-s%d-t%d" % (args.workload, args.seed,
                                                 args.trace))
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env(root)
    try:
        write_inputs(args.workload, args.seed, out, root)
        if args.trace:
            traced = run_child(args.workload, out, env, args.seconds, 1,
                               deadline)
            plain = run_child(args.workload, out, env, args.seconds, 0,
                              deadline, limit=traced["attempted"])
            runs = (traced, plain)
            metrics = layer_metrics(args.workload, traced, plain)
            declared = bench["per_layer"]
            units = dict(spec.PRINTED_LAYER)
            notes = layer_report(args.workload, traced)
            notes.append("spans recorded: %d (written to %s)"
                         % (traced["spans"], out / "spans.jsonl"))
        else:
            setup_s = measure_setup(out, env)
            plain = run_child(args.workload, out, env, args.seconds, 0,
                              deadline)
            runs = (plain,)
            metrics = end_to_end(args.workload, plain, setup_s)
            declared = bench["end_to_end"]
            units = {k: v[0] for k, v in spec.PRINTED_END_TO_END.items()}
            notes = ["samples: %d links, %d per-link times, %.2f s timed"
                     % (plain["attempted"], len(plain["link_ms"]),
                        plain["elapsed_s"])]
        units.update((m["name"], m["unit"]) for m in declared)
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        missing += [k for k in metrics if k not in units]
        if missing:
            raise RuntimeError("metrics not both computed here and given "
                               "a unit in BENCHMARK.json or spec.py: %s"
                               % ", ".join(missing))
        if runs[0]["ran_out"]:
            notes.append("the %d generated inputs ran out after %.1f s, "
                         "before --seconds %d: the run is shorter than "
                         "asked (spec.WORKLOADS sets the count)"
                         % (runs[0]["attempted"], runs[0]["elapsed_s"],
                            args.seconds))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2

    failures = {}
    for res in runs:
        failures.update(res["failures"])
    attempted = runs[0]["attempted"]
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed,
                                             args.trace))
    for name, value in metrics.items():
        print("  %-34s %14.6g %s" % (name, value, units[name]))
    for line in notes:
        print("  " + line)
    for name, why in sorted(failures.items()):
        print("  FAILED %s: %s" % (name, why))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

"""What the benchmark runs, and what it prints beyond BENCHMARK.json.

``BENCHMARK.json`` at the repository root declares the gated workloads,
the gated end-to-end metrics with their units and bounds, and the
declared per-layer metrics with their units; ``run.py`` reads them from
there. This module holds the workload definitions, the metrics that are
printed but not declared, and the map from each per-layer metric to the
end-to-end metrics and workloads it should move.
"""

from __future__ import annotations

# Workloads. Inputs are generated by gen.links with a fixed composition
# (see there), so seeds change the words but not the mix.
WORKLOADS = {
    # Jones/det/gap/obstruct scan through `qalt batch --json`, default
    # options, one batch call per round of nine links (one per crossing
    # count); the first call also carries the bundled corpus codes.
    "table": {
        "family": "random",
        "crossings": range(8, 17),
        "links": 9 * 40,
        "chunk": 9,
    },
    # certify -> to_json -> from_json -> replay, all inputs QA.
    "certify-qa": {
        "family": "alternating",
        "crossings": range(8, 15),
        "links": 630,
        "budget": {"max_depth": 24, "max_nodes": 100000,
                   "simplify_passes": 50},
        "min_links": 100,
    },
    # certify under one fixed node budget; mixed outcomes. Not in
    # BENCHMARK.json: its seed-to-seed spread is too wide for any
    # allowed bound (README, "Steadiness").
    "certify-search": {
        "family": "near",
        "crossings": range(10, 17),
        "links": 210,
        "budget": {"max_depth": 24, "max_nodes": 1000,
                   "simplify_passes": 50},
        "min_links": 100,
    },
}

ALL = tuple(WORKLOADS)
CERTIFY = ("certify-qa", "certify-search")

# Entries of at most this many crossings also get their Jones polynomial
# checked against the 2^n state sum.
STATE_SUM_MAX_CROSSINGS = 12

# End-to-end metrics printed but not declared in BENCHMARK.json:
# name -> (unit, workloads that report it). A declared metric is
# reported on every workload, is never 0 and varies from seed to seed by
# well under its bound; per-link percentiles miss the last (README,
# "Steadiness"), and fail_frac is 0 on a correct run, so the gate reads
# "failed" instead.
PRINTED_END_TO_END = {
    "link_ms_p50": ("ms", ALL),
    "link_ms_p90": ("ms", ALL),
    "replay_ms_p50": ("ms", ("certify-qa",)),
    "cert_kib": ("KiB", CERTIFY),
    "certified_frac": ("frac", CERTIFY),
    "fail_frac": ("frac", ALL),
}

_TABLE = ("links_per_s", "table")
_QA_REPLAY = ("replay_ms_p50", "certify-qa")
_QA_LINK = ("link_ms_p50", "certify-qa")
_QA_RATE = ("links_per_s", "certify-qa")
_SEARCH_P90 = ("link_ms_p90", "certify-search")
_SEARCH_CERT = ("certified_frac", "certify-search")

# Span name -> (end-to-end metric, workload) pairs it should move.
# Each yields <name>.calls and <name>.self_ms, both per link.
LAYER_FUNCTIONS = {
    "cli.main": [_TABLE],
    "cli._cmd_batch": [_TABLE],
    "cli._batch_line": [_TABLE],
    "diagram.parse_pd": [_TABLE, _QA_REPLAY],
    "diagram.Diagram.init": [_TABLE, _SEARCH_P90, _QA_REPLAY],
    "diagram.Diagram.canonical": [_TABLE, _SEARCH_P90, _QA_REPLAY],
    "diagram.Diagram.smooth": [_TABLE, _SEARCH_P90, _QA_REPLAY],
    "diagram.Diagram.simplify": [_SEARCH_P90, _QA_REPLAY],
    "bracket.bracket_result": [_TABLE],
    "bracket.jones": [_TABLE, _QA_REPLAY],
    "bracket.kauffman_bracket": [_TABLE, _QA_REPLAY],
    "bracket.determinant": [_QA_REPLAY],
    "laurent.arith": [_TABLE],
    "laurent.analyze": [_TABLE],
    "tait.checkerboard": [_SEARCH_P90, _QA_LINK, _QA_REPLAY],
    "tait.goeritz_det": [_SEARCH_P90, _QA_LINK, _QA_REPLAY],
    "util.bareiss_det": [_SEARCH_P90, _QA_LINK, _QA_REPLAY],
    "qa.certify": [_QA_LINK, _QA_RATE, _SEARCH_P90],
    "qa.replay_certificate": [_QA_REPLAY, _QA_RATE],
    "qa.obstruct": [_TABLE],
}

# Per-layer metrics that are not a span's calls/self time:
# name -> pairs it should move.
LAYER_EXTRA = {
    "bracket.brackets_per_link": [_TABLE],
    "qa.outcome.certified": [_SEARCH_CERT],
    "qa.outcome.exhausted": [_SEARCH_CERT],
    "qa.outcome.budget": [_SEARCH_CERT],
    "qa.useful_ratio": [_SEARCH_P90, _SEARCH_CERT],
    "qa.budget_nodes_per_s": [_SEARCH_P90, _SEARCH_CERT],
    "qa.cert_nodes": [("cert_kib", "certify-qa"), _QA_REPLAY],
    "qa.cert_unique_nodes": [("cert_kib", "certify-qa"), _QA_REPLAY],
    # untraced links_per_s over traced links_per_s on the same links
    "trace.slowdown": [("links_per_s", w) for w in ALL],
}

# Per-layer metrics printed but not declared in BENCHMARK.json, with
# their units: they only move on certify-search, which is not declared.
# On table they read 0; on certify-qa every link certifies.
PRINTED_LAYER = {
    "qa.outcome.certified": "frac",
    "qa.outcome.exhausted": "frac",
    "qa.outcome.budget": "frac",
    "qa.useful_ratio": "ratio",
    "qa.budget_nodes_per_s": "nodes/s",
}


def layer_moves() -> dict:
    """Every per-layer metric -> the (end-to-end metric, workload) pairs
    it should move."""
    out = {}
    for name, pairs in LAYER_FUNCTIONS.items():
        out[name + ".calls"] = pairs
        out[name + ".self_ms"] = pairs
    out.update(LAYER_EXTRA)
    return out


MODULES = ("cli", "qa", "bracket", "tait", "laurent", "diagram", "util")

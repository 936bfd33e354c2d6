import argparse
import hashlib
import json
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import qalt.cli
import qalt.qa
from conftest import braid_closure
from qalt import corpus
from qalt.bracket import jones, kauffman_bracket
from qalt.cli import build_parser, main
from qalt.diagram import parse_pd
from qalt.laurent import analyze, parse
from qalt.qa import (Budget, Certificate, kanenobu_jones,
                     replay_certificate)
from qalt.tait import checkerboard, gamma

HOPF = "X[1,4,2,3] X[3,2,4,1]"
TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8 = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
SPLIT_HOPFS = "X[1,4,2,3] X[3,2,4,1] X[5,8,6,7] X[7,6,8,5]"  # det 0


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_jones_text(capsys):
    code, out, _ = run(capsys, "jones", "--pd", TREFOIL)
    assert code == 0
    assert "jones: -t^(-4) + t^(-3) + t^(-1)" in out
    assert "det: 3" in out
    assert "breadth: 3" in out
    assert "gaps: 1" in out


def test_jones_json_round_trips(capsys):
    code, out, _ = run(capsys, "jones", "--pd", HOPF, "--json")
    assert code == 0
    data = json.loads(out)
    assert parse(data["jones"], var="t") == jones(corpus.hopf())
    assert data["det"] == 2
    assert data["breadth"] == "2"
    assert data["gap_count"] == 1


def test_bracket_json_round_trips(capsys):
    code, out, _ = run(capsys, "bracket", "--pd", TREFOIL, "--json")
    data = json.loads(out)
    assert code == 0
    assert parse(data["bracket"], var="A") == kauffman_bracket(
        corpus.trefoil())
    assert data["writhe"] == -3


def _json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    return json.loads(out)


def _gap_fields(rep):
    return {"gap_count": rep.gap_count(),
            "gaps": [{"start": str(Fraction(s2, 2)), "length": n}
                     for s2, n in rep.gaps],
            "alternating": rep.alternating}


@pytest.mark.parametrize("white", [False, True])
def test_gamma_json_round_trips(capsys, white):
    g = checkerboard(parse_pd(FIG8))[white]
    flags = ["--white"] if white else []
    data = _json(capsys, "gamma", "--pd", FIG8, *flags)
    assert parse(data["gamma"], var="A") == gamma(g)
    assert (data["edges"], data["vertices"]) == (len(g.edges),
                                                 g.vertex_count)


def test_gamma_from_pd_and_edgelist(tmp_path, capsys):
    code, out, _ = run(capsys, "gamma", "--pd", HOPF)
    assert code == 0 and "gamma: -A^(-4) - A^4" in out
    edges = tmp_path / "g.edges"
    edges.write_text("0 1 -\n1 0 -\n")
    code, out2, _ = run(capsys, "gamma", "--edgelist", str(edges))
    assert code == 0 and "gamma: -A^(-4) - A^4" in out2


def test_gamma_white_flag(capsys):
    code, out, _ = run(capsys, "gamma", "--pd", HOPF, "--white")
    assert code == 0
    assert "gamma: -A^(-4) - A^4" in out  # white Hopf graph mirrors black


def test_white_flag_needs_an_embedding(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text("0 1 -\n1 0 -\n")
    for cmd in ("gamma", "goeritz"):
        code, out, err = run(capsys, cmd, "--edgelist", str(edges), "--white")
        assert code == 1 and out == ""
        assert err == "error: graph carries no embedding\n"


@pytest.mark.parametrize("text, line", [
    pytest.param(line + "\n0 1 +\n", line, id=line)
    for line in ("vertices", "vertices 0", "vertices -2", "vertices 2 9")
] + [pytest.param("0 1 +\nvertices 3\n", "vertices 3", id="late")])
def test_bad_vertices_line_is_exit_1(tmp_path, text, line):
    edges = tmp_path / "g.edges"
    edges.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "qalt.cli", "goeritz", "--edgelist",
         str(edges)], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert repr(line) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_edgelist_with_a_huge_vertex_number_exits_at_once(tmp_path, capsys):
    # one edge cannot connect a million vertices; the answer needs no
    # per-vertex table
    edges = tmp_path / "g.edges"
    for text in ("0 1000000 +\n", "vertices 1000000\n0 1 +\n"):
        edges.write_text(text)
        for cmd in ("goeritz", "gamma"):
            tracemalloc.start()
            try:
                code = main([cmd, "--edgelist", str(edges)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            out = capsys.readouterr()
            assert code == 1 and out.out == ""
            assert out.err == "error: graph is not connected\n"
            assert peak < 2 ** 20


def test_goeritz(capsys):
    code, out, _ = run(capsys, "goeritz", "--pd", FIG8)
    assert code == 0 and "goeritz det: 5" in out
    assert _json(capsys, "goeritz", "--pd", FIG8) == {"goeritz_det": 5}


def test_det(capsys):
    code, out, _ = run(capsys, "det", "--pd", HOPF, "--json")
    assert code == 0 and json.loads(out)["det"] == 2


def test_analyze_poly(capsys):
    code, out, _ = run(capsys, "analyze", "--poly", "-t^(-5/2) - t^(-1/2)")
    assert code == 0
    assert "breadth: 2" in out
    assert "alternating: True" in out


def test_analyze_step_zero_is_exit_1(capsys):
    code, out, err = run(capsys, "analyze", "--poly", "-t^(-5/2) - t^(-1/2)",
                         "--step2", "0")
    assert (code, out, err) == (1, "", "error: step2 must be a positive "
                                "integer\n")


def test_analyze_half_parenthesized_poly_is_exit_1(capsys):
    code, out, err = run(capsys, "analyze", "--poly", "2t^(1/2")
    assert code == 1 and out == ""
    assert err == "error: cannot parse exponent '(1/2'\n"


def test_analyze_pd_json(capsys):
    code, out, _ = run(capsys, "analyze", "--pd", FIG8, "--json")
    data = json.loads(out)
    assert data["gap_count"] == 0 and data["alternating"] is True
    v = jones(parse_pd(TREFOIL))
    data = _json(capsys, "analyze", "--pd", TREFOIL)
    assert parse(data["poly"]) == v
    assert data == {"poly": data["poly"], "breadth": "3", "step": "1",
                    **_gap_fields(analyze(v, step2=2))}
    f = parse("A^(-10) - A^6 + A^14", var="A")
    data = _json(capsys, "analyze", "--poly", f.render("A"), "--var", "A",
                 "--step2", "8")
    assert parse(data["poly"], var="A") == f
    assert data == {"poly": data["poly"], "breadth": "24", "step": "4",
                    **_gap_fields(analyze(f, step2=8))}


@pytest.mark.parametrize("var", ["A", "t"])
def test_analyze_var_goes_with_poly(capsys, var):
    # a diagram's polynomial is its Jones polynomial in t, so a --var
    # there is refused, whatever it names, rather than relabelling it
    code, out, err = run(capsys, "analyze", "--pd", TREFOIL, "--var", var)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--poly" in err
    data = _json(capsys, "analyze", "--poly", "1 + %s^2" % var,
                 "--var", var)
    assert data["poly"] == "1 + %s^2" % var


def test_obstruct_poly_needs_det(capsys):
    code, _, err = run(capsys, "obstruct", "--poly", "1 + t^2")
    assert code == 1 and "--det" in err


def test_obstruct_det_without_poly_is_exit_1(capsys):
    # a diagram gives its own det; a --det it would ignore is an error
    code, out, err = run(capsys, "obstruct", "--pd", HOPF, "--det", "7")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--poly" in err


def test_obstruct_fires(capsys):
    code, out, _ = run(capsys, "obstruct", "--poly", "1 + t^2 + t^5",
                       "--det", "9", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["status"] == "NotQA"
    assert any(r["rule"] == "multi-gap" for r in data["reasons"])


def test_obstruct_pd_flags(capsys):
    code, out, _ = run(capsys, "obstruct", "--pd", FIG8, "--prime", "--json")
    data = json.loads(out)
    assert code == 0 and data["status"] == "Inconclusive"
    assert data["assumptions"] == {"prime": True}


@pytest.mark.parametrize("pd", [TREFOIL, corpus.HOPF_PD,
                                corpus.torus(4).render(),
                                corpus.torus(7).render()],
                         ids=["trefoil", "hopf", "T(2,4)", "T(2,7)"])
def test_obstruct_prime_spares_torus_2n(capsys, pd):
    # each has a gap, and each certifies, so --prime alone must not
    # obstruct it
    code, out, _ = run(capsys, "obstruct", "--pd", pd, "--prime", "--json")
    data = json.loads(out)
    assert code == 0 and data["status"] == "Inconclusive", data
    code, out, _ = run(capsys, "jones", "--pd", pd, "--json")
    assert json.loads(out)["gap_count"] >= 1


def test_obstruct_gap_witness_names_the_torus_link(capsys):
    code, out, _ = run(capsys, "obstruct", "--poly", "1 + t^2", "--det",
                       "5", "--prime", "--json")
    data = json.loads(out)
    assert code == 0 and data["status"] == "NotQA"
    gap = next(r for r in data["reasons"] if r["rule"] == "gap")
    assert gap["witness"]["torus_2n"] == {"n": 5}


def test_obstruct_gap_rule_on_a_large_det_builds_no_torus_v(capsys,
                                                          monkeypatch):
    # a 3-term V is no shift of V(T(2,n)) for n > 3; building that
    # polynomial for a 20-digit det would never finish
    def no_torus(n):
        raise AssertionError("V(T(2,%d)) was built" % n)

    monkeypatch.setattr(qalt.qa, "torus_2n_jones", no_torus)
    code, out, _ = run(capsys, "obstruct", "--poly", "1 + t^2 + t^4",
                       "--det", "99999999999999999999", "--prime", "--json")
    data = json.loads(out)
    assert code == 0 and data["status"] == "NotQA"
    gap = next(r for r in data["reasons"] if r["rule"] == "gap")
    assert gap["witness"]["torus_2n"] == {"n": 99999999999999999999}


def test_obstruct_det_zero_is_notqa(capsys):
    code, out, err = run(capsys, "obstruct", "--pd", SPLIT_HOPFS)
    assert code == 0 and err == ""
    assert out.splitlines()[:2] == [
        "status: NotQA",
        "  det: a quasi-alternating link has determinant at least 1, "
        "and only the unknot has determinant 1"]
    code, out, _ = run(capsys, "obstruct", "--poly", "1 - t", "--det", "1",
                       "--json")
    data = json.loads(out)
    assert code == 0 and data["status"] == "NotQA"
    assert [r["rule"] for r in data["reasons"]] == ["det"]


def test_obstruct_negative_det_is_exit_1(capsys):
    code, out, err = run(capsys, "obstruct", "--poly", "1", "--det", "-1")
    assert code == 1 and out == ""
    assert "non-negative" in err


def test_torus2n_flag_is_gone(capsys):
    code, _, err = run(capsys, "obstruct", "--pd", TREFOIL, "--torus2n")
    assert code == 1 and "--torus2n" in err


def test_certify_json_replayable(capsys):
    code, out, _ = run(capsys, "certify", "--pd", TREFOIL)
    assert code == 0
    # pretty-printed for the terminal
    assert out.startswith('{\n  "version": 3,\n  "pd": ')
    cert = Certificate.from_json(out)
    assert replay_certificate(cert)
    assert cert.tree["nodes"][0][1] == 3
    data = _json(capsys, "certify", "--pd", TREFOIL)
    assert data == {"status": "Certified", "certificate": cert.tree}


def test_certify_prints_a_tree_599_levels_deep(capsys):
    # the indented tree nests to the same depth however deep the search
    # went
    pd = corpus.torus(600).render()
    code, out, err = run(capsys, "certify", "--max-depth", "5000", "--pd", pd)
    assert code == 0 and err == ""
    cert = Certificate.from_json(out)
    assert cert.tree["version"] == 3 and len(cert.tree["nodes"]) == 599
    assert replay_certificate(cert)


def test_certify_deeper_than_the_recursion_limit_exits_2():
    # a search too deep for the interpreter is out of budget: exit 2
    # with the status line, not a RecursionError traceback
    script = ("import sys; from qalt.cli import main; "
              "sys.setrecursionlimit(300); sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", script, "certify", "--max-depth", "5000",
         "--pd", corpus.torus(400).render()], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == "status: Unknown (budget)\n"
    assert "Traceback" not in proc.stderr


def test_certify_budget_exit_2(capsys):
    code, out, _ = run(capsys, "certify", "--pd", FIG8, "--max-nodes", "2")
    assert code == 2
    assert "Unknown" in out


def test_certify_exhausted_search_exit_2(capsys):
    # the closure of (sigma_1 sigma_2)^4 is the torus knot T(3,4), which
    # is not quasi-alternating: the search runs out of crossings to try
    # well inside the default budget, and that exits 2 as well
    pd = braid_closure([1, 2] * 4, 3).render()
    code, out, _ = run(capsys, "certify", "--pd", pd)
    assert code == 2
    assert out == "status: Unknown (exhausted)\n"
    code, out, _ = run(capsys, "certify", "--pd", pd, "--json")
    assert code == 2
    assert json.loads(out) == {"status": "Unknown", "reason": "exhausted"}


def test_certify_zero_depth_is_honoured(capsys):
    code, out, _ = run(capsys, "certify", "--pd", TREFOIL, "--max-depth", "0")
    assert code == 2
    assert "Unknown (budget)" in out


@pytest.mark.parametrize("flag", ["--max-depth", "--max-nodes",
                                  "--simplify-passes"])
def test_certify_negative_budget_is_exit_1(capsys, flag):
    code, out, err = run(capsys, "certify", "--pd", TREFOIL, flag, "-1")
    assert code == 1 and out == ""
    assert "non-negative" in err


def test_kanenobu(capsys):
    code, out, _ = run(capsys, "kanenobu", "0", "0", "--analyze", "--json")
    data = json.loads(out)
    assert code == 0
    v = kanenobu_jones(0, 0)
    assert parse(data["jones"]) == v
    assert data["det"] == 25
    assert data["breadth"] == "8"
    assert {k: data[k] for k in ("gap_count", "gaps", "alternating")} == \
        _gap_fields(analyze(v, step2=2))
    assert data["gap_count"] == 0
    assert data["status"] == "Inconclusive"


def test_kanenobu_disagreement_visible(capsys):
    code, out, _ = run(capsys, "kanenobu", "3", "3", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["status"] == "Inconclusive" and data["battery_agrees"] is False


def test_batch_error_isolation(tmp_path, capsys):
    path = tmp_path / "links.txt"
    path.write_text("# header\n%s  # hopf\njunk  # broken\n%s  # trefoil\n"
                    % (HOPF, TREFOIL))
    code, out, _ = run(capsys, "batch", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    names = [e["name"] for e in data["entries"]]
    assert names == ["hopf", "broken", "trefoil"]  # input order kept
    assert "error" in data["entries"][1]
    assert data["entries"][0]["det"] == 2
    assert data["entries"][2]["det"] == 3
    assert parse(data["entries"][0]["jones"]) == jones(corpus.hopf())
    assert parse(data["entries"][2]["jones"]) == jones(corpus.trefoil())
    assert data["summary"] == {"entries": 3, "errors": 1, "notqa": 0,
                               "inconclusive": 2}


# PD codes that fix no planar embedding: Diagram takes them, the CLI
# does not (a planar code has crossings + 2 faces per piece of its
# shadow; these have 2 of 4 and 1 of 3)
NON_PLANAR = {"X[1,3,2,4] X[2,4,1,3]": 2, "X[1,2,1,2]": 1}


@pytest.mark.parametrize("command", ["jones", "bracket", "det", "obstruct"])
@pytest.mark.parametrize("pd", list(NON_PLANAR))
def test_non_planar_code_is_exit_1(capsys, command, pd):
    code, out, err = run(capsys, command, "--pd", pd)
    assert code == 1 and out == ""
    assert err == ("error: face count %d is not %d, crossings + 2 per piece "
                   "of the shadow: the PD code is not planar\n"
                   % (NON_PLANAR[pd], len(parse_pd(pd).crossings) + 2))


def test_batch_records_non_planar_codes(tmp_path, capsys):
    path = tmp_path / "links.txt"
    path.write_text("".join("%s  # bad-%d\n%s  # good-%d\n"
                            % (pd, k, TREFOIL, k)
                            for k, pd in enumerate(NON_PLANAR)))
    code, out, _ = run(capsys, "batch", str(path), "--json")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert [e["name"] for e in entries] == ["bad-0", "good-0", "bad-1",
                                            "good-1"]
    for e, faces in zip(entries[0::2], NON_PLANAR.values()):
        assert e["error"].startswith("ValueError: face count %d is not "
                                     % faces)
    assert [e["det"] for e in entries[1::2]] == [3, 3]
    assert json.loads(out)["summary"]["errors"] == 2


def test_batch_det_zero_is_notqa(tmp_path, capsys):
    path = tmp_path / "links.txt"
    path.write_text("%s  # split\n" % SPLIT_HOPFS)
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0
    assert out.splitlines()[0].split() == [
        "split", "det=0", "breadth=5", "gaps=0", "verdict=NotQA"]
    code, out, _ = run(capsys, "batch", str(path), "--json")
    entry = json.loads(out)["entries"][0]
    assert entry["verdict"] == "NotQA" and entry["reasons"][0]["rule"] == "det"


def test_batch_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("")
    code, out, _ = run(capsys, "batch", str(path), "--json")
    assert code == 0
    assert json.loads(out)["summary"]["entries"] == 0


def test_batch_certify_flag(tmp_path, capsys):
    path = tmp_path / "links.txt"
    path.write_text(HOPF + "\n")
    code, out, _ = run(capsys, "batch", str(path), "--certify", "--json")
    data = json.loads(out)
    entry = data["entries"][0]
    assert entry["certify_status"] == "Certified"
    assert replay_certificate(Certificate(entry["certificate"]))


def _three_lines(tmp_path):
    path = tmp_path / "links.txt"
    path.write_text("%s  # hopf\njunk  # broken\n%s  # trefoil\n"
                    % (HOPF, TREFOIL))
    return path


def test_batch_text_prints_an_error_row_and_counts_it(tmp_path, capsys):
    code, out, _ = run(capsys, "batch", str(_three_lines(tmp_path)))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[1].split() == ["broken", "ERROR", "PDSyntaxError:",
                                "unexpected", "text", "'junk'"]
    assert lines[0].split()[:2] == ["hopf", "det=2"]
    assert lines[2].split()[:2] == ["trefoil", "det=3"]
    assert lines[3] == "entries=3 errors=1 notqa=0 inconclusive=2"


def test_batch_certify_text_rows_end_in_the_status(tmp_path, capsys):
    code, out, _ = run(capsys, "batch", str(_three_lines(tmp_path)),
                       "--certify")
    assert code == 0
    hopf, broken, trefoil, summary = out.splitlines()
    assert hopf.endswith(" verdict=Inconclusive certify=Certified")
    assert trefoil.endswith(" verdict=Inconclusive certify=Certified")
    assert "certify=" not in broken + summary


def test_batch_certify_out_of_budget_records_unknown(tmp_path, capsys):
    code, out, _ = run(capsys, "batch", str(_three_lines(tmp_path)),
                       "--certify", "--max-nodes", "0", "--json")
    assert code == 0
    data = json.loads(out)
    hopf, broken, trefoil = data["entries"]
    for entry in (hopf, trefoil):
        assert entry["certificate"] is None
        assert entry["certify_status"] == "Unknown:budget"
    assert "certify_status" not in broken and "error" in broken
    assert data["summary"] == {"entries": 3, "errors": 1, "notqa": 0,
                               "inconclusive": 2}


def test_batch_budget_without_certify_is_exit_1(tmp_path, capsys):
    path = tmp_path / "links.txt"
    path.write_text(HOPF + "\n")
    code, out, err = run(capsys, "batch", str(path), "--max-nodes", "0")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--certify" in err


@pytest.mark.parametrize("value, message", [
    ("-1", "error: max_nodes must be a non-negative integer: -1\n"),
    ("1.5", "argument --max-nodes: invalid int value: '1.5'\n")])
def test_batch_bad_budget_flag_is_exit_1_before_any_line(tmp_path, capsys,
                                                         value, message):
    # the budget is checked once, before the lines, so a bad flag is no
    # per-line error record
    path = tmp_path / "links.txt"
    path.write_text(HOPF + "\n" + TREFOIL + "\n")
    code, out, err = run(capsys, "batch", str(path), "--certify",
                         "--max-nodes", value)
    assert code == 1 and out == ""
    assert err.endswith(message)


@pytest.mark.parametrize("command", ["certify", "batch"])
def test_budget_flags_are_the_budget_fields(command):
    # one flag per Budget field, in field order, and no other int flag
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    flags = [(a.option_strings, a.dest)
             for a in subs.choices[command]._actions if a.type is int]
    assert flags == [(["--" + name.replace("_", "-")], name)
                     for name in Budget.__slots__]


def test_batch_missing_file(capsys):
    code, _, err = run(capsys, "batch", "/nonexistent/path.txt")
    assert code == 1 and "cannot read" in err


def test_batch_has_no_workers_flag(tmp_path, capsys):
    path = tmp_path / "links.txt"
    path.write_text(HOPF + "\n")
    code, out, err = run(capsys, "batch", "--workers", "2", str(path))
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


def _closure_lines(count: int) -> list:
    # random-sign braid closures of 8-16 crossings on 3-5 strands
    rng = random.Random(20261020)
    lines = []
    for k in range(count):
        strands = rng.randint(3, 5)
        word = [rng.randint(1, strands - 1) * rng.choice((1, -1))
                for _ in range(rng.randint(8, 16))]
        lines.append("%s  # closure-%d"
                     % (braid_closure(word, strands).render(), k))
    return lines


# sha256 over the batch --json output of 60 seeded closures, with each
# record's ms dropped: the record bytes and their key order
BATCH_DIGEST = (
    "13ab863e0b8fea1328f01a633d11a690c59e09caa4c452e280f1ae78ed9f6259")


def test_batch_records_golden_digest(tmp_path, capsys):
    path = tmp_path / "links.txt"
    path.write_text("\n".join(_closure_lines(60)) + "\n")
    data = _json(capsys, "batch", str(path))
    for record in data["entries"]:
        del record["ms"]
    text = json.dumps(data, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == BATCH_DIGEST


def test_batch_line_analyzes_each_link_once(tmp_path, capsys, monkeypatch):
    # the verdict carries the gap report that the record's breadth and
    # gaps come from
    calls = []
    for module in (qalt.cli, qalt.qa):
        def counted(f, step2, inner=module.analyze):
            calls.append(f)
            return inner(f, step2)
        monkeypatch.setattr(module, "analyze", counted)
    path = tmp_path / "links.txt"
    path.write_text("\n".join(_closure_lines(7)) + "\n")
    entries = _json(capsys, "batch", str(path))["entries"]
    assert len(entries) == 7 and not any("error" in e for e in entries)
    assert len(calls) == 7


# JSON true is not the integer 1
@pytest.mark.parametrize("pd", ["[5]", "[null]", "[[1,4,2,3], 7]",
                                "[[true,1,2,2]]", "[[true,true,2,2]]"])
def test_pd_json_row_not_array_is_exit_1(pd):
    proc = subprocess.run(
        [sys.executable, "-m", "qalt.cli", "jones", "--pd", pd],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_pd_json_nested_too_deeply_is_exit_1(capsys):
    # json.loads recurses once per level
    code, out, err = run(capsys, "jones", "--pd", "[" * 2000)
    assert code == 1 and out == ""
    assert err.startswith("error: bad PD JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize("pd", [
    "X[\u0661,\u0664,\u0662,\u0665] X[\u0663,\u0666,\u0664,\u0661] "
    "X[\u0665,\u0662,\u0666,\u0663]",
    "X[\uff11,\uff14,\uff12,\uff15] X[\uff13,\uff16,\uff14,\uff11] "
    "X[\uff15,\uff12,\uff16,\uff13]",
], ids=["arabic-indic", "fullwidth"])
def test_pd_in_non_ascii_digits_is_exit_1(capsys, pd):
    code, out, err = run(capsys, "jones", "--pd", pd)
    assert code == 1 and out == ""
    assert err == "error: unexpected text %r\n" % pd


def test_poly_in_non_ascii_digits_is_exit_1(capsys):
    code, out, err = run(capsys, "analyze", "--poly",
                         "\u0663t^\u0662 - t")
    assert code == 1 and out == ""
    assert err == "error: cannot parse term '\u0663t^\u0662'\n"


def test_bad_pd_is_exit_1(capsys):
    code, _, err = run(capsys, "det", "--pd", "garbage")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--poly", ""], ["obstruct", "--poly", "", "--det", "3"],
    ["jones", "--file", ""], ["gamma", "--edgelist", ""],
], ids=["analyze-poly", "obstruct-poly", "jones-file", "gamma-edgelist"])
def test_empty_input_value_is_exit_1(capsys, argv):
    # an empty value is still the input given, not a missing one
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_usage_error_is_exit_1(capsys):
    code, _, _ = run(capsys, "jones")
    assert code == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qalt.cli", "det", "--pd", HOPF],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "det: 2" in proc.stdout


def test_parser_reuse_carries_no_flags_over(tmp_path, capsys):
    path = tmp_path / "links.txt"
    path.write_text(HOPF + "\n")
    entry = _json(capsys, "batch", str(path), "--certify")["entries"][0]
    assert entry["certify_status"] == "Certified"
    entry = _json(capsys, "batch", str(path))["entries"][0]
    assert "certify_status" not in entry and "certificate" not in entry
    data = _json(capsys, "analyze", "--poly", "A^(-10) - A^6 + A^14",
                 "--var", "A", "--step2", "8")
    assert data["step"] == "4"
    data = _json(capsys, "analyze", "--poly", "-t^(-5/2) - t^(-1/2)")
    assert (data["poly"], data["step"]) == ("-t^(-5/2) - t^(-1/2)", "1")


def test_second_main_call_builds_no_parser(monkeypatch, capsys):
    assert main(["det", "--pd", HOPF]) == 0

    def build(*args, **kwargs):
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", build)
    assert main(["det", "--pd", HOPF]) == 0
    assert capsys.readouterr().out == "det: 2\ndet: 2\n"


def test_import_builds_no_parser():
    code = ("import argparse\n"
            "def build(*args, **kwargs):\n"
            "    raise SystemExit('parser built at import')\n"
            "argparse.ArgumentParser.__init__ = build\n"
            "import qalt.cli\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

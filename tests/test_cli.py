import json
import subprocess
import sys
import tracemalloc

import pytest

from qalt import corpus
from qalt.bracket import jones, kauffman_bracket
from qalt.cli import main
from qalt.laurent import parse
from qalt.qa import Certificate, replay_certificate

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
    edges.write_text("0 1000000 +\n")
    tracemalloc.start()
    try:
        code = main(["goeritz", "--edgelist", str(edges)])
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


def test_det(capsys):
    code, out, _ = run(capsys, "det", "--pd", HOPF, "--json")
    assert code == 0 and json.loads(out)["det"] == 2


def test_analyze_poly(capsys):
    code, out, _ = run(capsys, "analyze", "--poly", "-t^(-5/2) - t^(-1/2)")
    assert code == 0
    assert "breadth: 2" in out
    assert "alternating: True" in out


def test_analyze_pd_json(capsys):
    code, out, _ = run(capsys, "analyze", "--pd", FIG8, "--json")
    data = json.loads(out)
    assert data["gap_count"] == 0 and data["alternating"] is True


def test_obstruct_poly_needs_det(capsys):
    code, _, err = run(capsys, "obstruct", "--poly", "1 + t^2")
    assert code == 1 and "--det" in err


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
    assert gap["witness"]["torus_2n"] == {
        "n": 5, "jones": "t^2 + t^4 - t^5 + t^6 - t^7"}


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
    assert out.startswith('{\n  "pd": ')  # pretty-printed for the terminal
    cert = Certificate.from_json(out)
    assert replay_certificate(cert)
    assert cert.tree["det"] == 3


def test_certify_budget_exit_2(capsys):
    code, out, _ = run(capsys, "certify", "--pd", FIG8, "--max-nodes", "2")
    assert code == 2
    assert "Unknown" in out


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
    assert data["det"] == 25
    assert data["breadth"] == "8"
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
    assert data["summary"] == {"entries": 3, "errors": 1, "notqa": 0,
                               "inconclusive": 2}


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
    assert replay_certificate(Certificate(
        root=corpus.hopf(), tree=entry["certificate"]))


def test_batch_missing_file(capsys):
    code, _, err = run(capsys, "batch", "/nonexistent/path.txt")
    assert code == 1 and "cannot read" in err


def test_batch_has_no_workers_flag(tmp_path, capsys):
    path = tmp_path / "links.txt"
    path.write_text(HOPF + "\n")
    code, out, err = run(capsys, "batch", "--workers", "2", str(path))
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


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


def test_bad_pd_is_exit_1(capsys):
    code, _, err = run(capsys, "det", "--pd", "garbage")
    assert code == 1 and "error" in err


def test_usage_error_is_exit_1(capsys):
    code, _, _ = run(capsys, "jones")
    assert code == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qalt.cli", "det", "--pd", HOPF],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "det: 2" in proc.stdout

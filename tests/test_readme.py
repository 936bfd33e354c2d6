"""README's library example runs and gives the values its comments name,
and its CLI block shows every subcommand and each command exits 0, so
neither can go stale unnoticed."""

import argparse
import re
import shlex
from pathlib import Path

from qalt.cli import build_parser, main
from qalt.diagram import parse_pd
from qalt.qa import Certificate, replay_certificate

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _cli_commands() -> list:
    """The qalt command lines of the "CLI usage" block, each split as a
    shell would, with the leading "qalt" and any trailing comment gone."""
    section = README.read_text().split("## CLI usage", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("qalt ")]


def _comment(code: str, start: str) -> str:
    """The comment on the example's line that begins with start."""
    for line in code.splitlines():
        if line.startswith(start):
            return line.partition("#")[2].strip()
    raise AssertionError("no line of the example begins with %r" % start)


def test_readme_library_example(capsys):
    code = _library_example()
    ns = {}
    exec(code, ns)
    status, cert_text = capsys.readouterr().out.splitlines()
    assert ns["v"].render("t") == _comment(code, "v = ")
    assert str(ns["det"]) == _comment(code, "det = ") == "3"
    assert status == _comment(code, "print(obstruct(") == "Inconclusive"
    # one line of compact JSON that replays to the example's diagram
    assert _comment(code, "print(certify(") == "compact, replayable JSON"
    cert = Certificate.from_json(cert_text)
    assert parse_pd(cert.tree["pd"]) == ns["d"]
    assert replay_certificate(cert)


def test_readme_cli_block(tmp_path, monkeypatch, capsys):
    # the files the block names, written where the commands run
    (tmp_path / "edges.txt").write_text("vertices 3\n0 1 +\n1 2 -\n2 0 +\n")
    (tmp_path / "links.txt").write_text(
        "# trefoil\nX[1,4,2,5] X[3,6,4,1] X[5,2,6,3]\n"
        "# Hopf link\nX[1,4,2,3] X[3,2,4,1]\n")
    monkeypatch.chdir(tmp_path)
    commands = _cli_commands()
    assert len(commands) == 11
    subcommands = next(a.choices for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in commands} == set(subcommands)
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out

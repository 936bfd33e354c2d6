"""README's library example runs and gives the values its comments name,
so the example cannot go stale unnoticed."""

import re
from pathlib import Path

from qalt.qa import Certificate, replay_certificate

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


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
    assert cert.root == ns["d"]
    assert replay_certificate(cert)

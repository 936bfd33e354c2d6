"""What a fresh interpreter loads for qalt, and the bracket's DEBUG line.

A one-link qalt call is dominated by start-up, so qalt imports no
standard-library module that costs more than its use: no dataclasses
(it loads inspect), no logging and no fractions (it loads decimal).
The command line already needs argparse, json and re, so they are
loaded before the count starts. Each check runs in a new interpreter,
since the test process has loaded all of these long before.
"""

import subprocess
import sys

import pytest

LEFT_OUT = ("dataclasses", "inspect", "logging", "fractions", "decimal")

# prints the modules each step adds to sys.modules, one line per step
_STEPS = """
import argparse, json, re, sys
seen = set(sys.modules)

def step():
    global seen
    print(" ".join(sorted(set(sys.modules) - seen)))
    seen = set(sys.modules)

import qalt, qalt.cli
step()
from qalt import corpus
d = corpus.trefoil()
v = qalt.jones(d)
qalt.obstruct(v, qalt.determinant(d), prime=True)
step()
text = qalt.certify(d).to_json()
assert qalt.replay_certificate(qalt.Certificate.from_json(text))
step()
"""


def _python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_qalt_loads_none_of_the_costly_stdlib_modules():
    lines = _python(_STEPS).splitlines()
    assert len(lines) == 3
    steps = ("import qalt, qalt.cli", "jones and obstruct",
             "certify, to_json, from_json, replay")
    for step, line in zip(steps, lines):
        loaded = set(line.split())
        assert loaded.isdisjoint(LEFT_OUT), (step, sorted(loaded))
    assert "qalt.cli" in lines[0].split()


@pytest.mark.parametrize("before", [False, True], ids=["after", "before"])
def test_bracket_debug_line_reaches_a_handler(before):
    # the application may import and configure logging after qalt or
    # before it; either way the sweep's line reaches its handler
    configure = ("import logging\n"
                 "logging.basicConfig(level=logging.DEBUG, "
                 "stream=sys.stdout, format='%(name)s %(message)s')\n")
    code = ("import sys\n"
            + (configure if before else "")
            + "import qalt\nfrom qalt import corpus\n"
            + ("" if before else configure)
            + "qalt.kauffman_bracket(corpus.trefoil())\n")
    assert _python(code) == ("qalt.bracket kauffman_bracket: 3 crossings, "
                             "frontier width 4, peak states 2\n")


"""Every function the benchmark's tracer wraps still exists.

perfbench/spans.py wraps each layer function where its caller looks it
up, and skips a name the program no longer has; that layer's metrics
would then read 0 without any error. A stub tracer records what
instrument() asks for, and each (owner, attribute) must resolve; the
real tracer, run over one batch call, must count every layer that call
goes through.
"""

import importlib.util
from pathlib import Path

import qalt.cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


class _Recorder:
    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, span=True, link_of=None):
        self.wrapped.append((owner, attr, name))


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_wrapped_name_resolves():
    rec = _Recorder()
    _load_spans().instrument(rec)
    assert rec.wrapped
    missing = [(getattr(owner, "__name__", owner), attr, name)
               for owner, attr, name in rec.wrapped
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_batch_under_the_real_tracer_counts_every_layer(tmp_path, capsys):
    # the parser is built by a plain call first, so a handler it froze
    # at build time would bypass the wrappers set up afterwards
    spans = _load_spans()
    path = tmp_path / "links.txt"
    path.write_text("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]  # trefoil\n")
    assert qalt.cli.main(["det", "--pd", "X[1,4,2,3] X[3,2,4,1]"]) == 0
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        assert qalt.cli.main(["batch", str(path), "--json"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    totals = tracer.totals()
    uncounted = [name for name in ("cli.main", "cli._cmd_batch",
                                   "cli._batch_line", "bracket.bracket_result",
                                   "qa.obstruct", "laurent.analyze",
                                   "diagram.parse_pd")
                 if name not in totals]
    assert uncounted == []

"""Every function the benchmark's tracer wraps still exists.

perfbench/spans.py wraps each layer function where its caller looks it
up, and skips a name the program no longer has; that layer's metrics
would then read 0 without any error. A stub tracer records what
instrument() asks for, and each (owner, attribute) must resolve.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


class _Recorder:
    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, span=True, link_of=None):
        self.wrapped.append((owner, attr, name))


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    rec = _Recorder()
    spans.instrument(rec)
    assert rec.wrapped
    missing = [(getattr(owner, "__name__", owner), attr, name)
               for owner, attr, name in rec.wrapped
               if not callable(getattr(owner, attr, None))]
    assert missing == []

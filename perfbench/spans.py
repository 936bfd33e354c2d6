"""Spans around calls into qalt's modules, recorded from outside.

Each public function is wrapped where its caller looks it up (for
example ``qalt.cli.bracket_result`` for the batch path and
``qalt.qa.checkerboard`` for the certification search), so the program
itself is unchanged. Every wrapped call pushes a frame on a per-thread
stack. On return its self time, the call's time minus the time its
children cover, is added to the aggregate of its span name. ``batch``
runs entries on pool threads that share one interpreter lock, so times
are the calling thread's CPU time (``time.thread_time_ns``): wall time
would charge each entry for the others it waits behind.

Calls of the coarse functions are also kept in memory as spans (name,
wall start and end, parent span, link id, thread id) and written out
once at the end. The hot functions (``parse_pd``, ``Diagram``
methods, Laurent arithmetic, the checkerboard and determinant kernels)
run up to a million times per run, so they are aggregated only.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

_thread_time = time.thread_time_ns
_wall = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []
        self.link = None
        self._tls = threading.local()
        self._states = []
        self._ids = itertools.count(1)
        self._patches = []
        self.names = set()
        self._main = self._state()

    def _state(self):
        try:
            return self._tls.state
        except AttributeError:
            # (frame stack, {name: [calls, self_ns, total_ns]}, thread id)
            st = self._tls.state = ([], {}, threading.get_ident())
            self._states.append(st)
            return st

    def _link(self):
        return getattr(self._tls, "link", None) or self.link

    def wrap(self, owner, attr: str, name: str, span: bool = True,
             link_of=None):
        """Replace ``owner.attr`` by a wrapper recording ``name``.

        ``link_of(args)``, when given, names the link the call works on;
        it is used where pool threads pick up entries. A function the
        program no longer has is skipped; its metrics then read 0."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        tracer = self

        def call(*args, **kwargs):
            stack, agg, tid = tracer._state()
            frame = [0]
            if stack:
                parent = stack[-1][1]
            else:
                # a pool thread's first call hangs off the loop thread
                main = tracer._main[0]
                parent = main[-1][1] if main else None
            # an aggregated-only frame passes its nearest span on as parent
            sid = next(tracer._ids) if span else parent
            prev_link = None
            if link_of is not None:
                prev_link = getattr(tracer._tls, "link", None)
                tracer._tls.link = link_of(args)
            stack.append((frame, sid))
            w0 = _wall() if span else 0
            c0 = _thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = _thread_time() - c0
                stack.pop()
                if stack:
                    stack[-1][0][0] += cpu
                rec = agg.get(name)
                if rec is None:
                    rec = agg[name] = [0, 0, 0]
                rec[0] += 1
                rec[1] += cpu - frame[0]
                rec[2] += cpu
                if span:
                    tracer.spans.append((sid, name, w0, _wall(), parent,
                                         tracer._link(), tid))
                if link_of is not None:
                    tracer._tls.link = prev_link

        call.__wrapped__ = fn
        setattr(owner, attr, call)
        self.names.add(name)
        self._patches.append((owner, attr, fn))

    def restore(self):
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def totals(self) -> dict:
        """{name: [calls, self_ns, total_ns]} summed over threads; a
        recursive name counts its nested time once per level."""
        out = {}
        for _, agg, _ in self._states:
            for name, rec in agg.items():
                acc = out.setdefault(name, [0, 0, 0])
                for i in range(3):
                    acc[i] += rec[i]
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, w0, w1, parent, link, tid in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": w0,
                                     "end_ns": w1, "parent": parent,
                                     "link": link, "thread": tid}) + "\n")


def _batch_link(args):
    # _batch_line(idx, line, args): the entry's name is the line comment
    return args[1].partition("#")[2].strip() or "line-%d" % args[0]


def instrument(tracer: Tracer):
    """Wrap the layer boundaries named in ``spec.LAYER_FUNCTIONS``."""
    import qalt.bracket
    import qalt.cli
    import qalt.diagram
    import qalt.laurent
    import qalt.qa
    import qalt.tait

    w = tracer.wrap
    w(qalt.cli, "main", "cli.main")
    w(qalt.cli, "_cmd_batch", "cli._cmd_batch")
    w(qalt.cli, "_batch_line", "cli._batch_line", link_of=_batch_link)
    for mod in (qalt.cli, qalt.qa):
        # replay parses every certificate node: aggregate only
        w(mod, "parse_pd", "diagram.parse_pd", span=False)
        w(mod, "analyze", "laurent.analyze")
    w(qalt.cli, "bracket_result", "bracket.bracket_result")
    w(qalt.cli, "obstruct", "qa.obstruct")
    w(qalt.bracket, "kauffman_bracket", "bracket.kauffman_bracket")
    w(qalt.bracket, "jones", "bracket.jones")
    w(qalt.qa, "bracket_determinant", "bracket.determinant")
    w(qalt.qa, "certify", "qa.certify")
    w(qalt.qa, "replay_certificate", "qa.replay_certificate")
    w(qalt.qa, "checkerboard", "tait.checkerboard", span=False)
    w(qalt.qa, "goeritz_det", "tait.goeritz_det", span=False)
    w(qalt.tait, "bareiss_det", "util.bareiss_det", span=False)
    D = qalt.diagram.Diagram
    w(D, "__init__", "diagram.Diagram.init", span=False)
    for attr in ("canonical", "smooth", "simplify"):
        w(D, attr, "diagram.Diagram." + attr, span=False)
    H = qalt.laurent.HalfLaurent
    for attr in ("__add__", "__mul__", "shift2"):
        w(H, attr, "laurent.arith", span=False)

"""In-memory spans recorded from outside the program, and two proxies.

A span is ``name, start, end, parent, request id``; spans are kept in a
list while the run lasts and written out (Chrome trace JSON) when it ends.
A layer's *self time* is its span minus the part its children cover.

Spans sit only at boundaries the benchmark can reach through public
entry points: a :class:`SpanPass` around each pass object handed to
``PassManager``, a :class:`SpanEngine` around ``NativeEngine.try_run_map``
passed as ``MemExecutor(native=...)``, and plain ``with tracer.span(...)``
around calls such as ``Program.run``.  Spans inside ``src/`` are a later
issue.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional


class Span:
    __slots__ = ("tracer", "name", "rid", "parent", "tid", "start", "end", "ok")

    def __init__(self, tracer: "Tracer", name: str, rid) -> None:
        self.tracer = tracer
        self.name = name
        self.rid = rid
        self.parent: Optional[Span] = None
        self.tid = 0
        self.start = self.end = 0.0
        #: Set by SpanEngine: did the native tier take this launch?
        self.ok: Optional[bool] = None

    def __enter__(self) -> "Span":
        stack = self.tracer._stack()
        if stack:
            self.parent = stack[-1]
            if self.rid is None:
                self.rid = self.parent.rid
        self.tid = threading.get_ident()
        stack.append(self)
        self.tracer.spans.append(self)  # list.append is atomic
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.tracer._stack().pop()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _NoSpan:
    """What :class:`NullTracer` hands out: records nothing."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


class NullTracer:
    """Tracing off: the untraced run goes through the same code path."""

    _span = _NoSpan()

    def span(self, name: str, rid=None):
        return self._span


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, name: str, rid=None) -> Span:
        return Span(self, name, rid)

    def mark(self) -> int:
        """A position in the span list; pass to the queries below to look
        only at spans recorded since."""
        return len(self.spans)

    # -- queries -------------------------------------------------------
    def named(self, name: str, since: int = 0) -> List[Span]:
        return [s for s in self.spans[since:] if s.name == name]

    def total(self, name: str, since: int = 0) -> float:
        return sum(s.seconds for s in self.named(name, since))

    def self_seconds(self, since: int = 0) -> Dict[str, float]:
        """name -> summed self time (span minus what its children cover;
        the children of one span run on its thread, one after another)."""
        covered: Dict[int, float] = defaultdict(float)
        for s in self.spans[since:]:
            if s.parent is not None:
                covered[id(s.parent)] += s.seconds
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans[since:]:
            out[s.name] += s.seconds - covered.get(id(s), 0.0)
        return dict(out)

    # -- output --------------------------------------------------------
    def write_chrome(self, path: Path) -> None:
        """One complete ("X") event per span, microseconds."""
        t0 = min((s.start for s in self.spans), default=0.0)
        tids: Dict[int, int] = {}
        events = []
        for s in self.spans:
            events.append(
                {
                    "name": s.name,
                    "cat": s.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (s.start - t0) * 1e6,
                    "dur": s.seconds * 1e6,
                    "pid": 0,
                    "tid": tids.setdefault(s.tid, len(tids)),
                    "args": {
                        "rid": s.rid,
                        "parent": s.parent.name if s.parent else None,
                    },
                }
            )
        path.write_text(json.dumps({"traceEvents": events}))


class SpanPass:
    """Delegating proxy for one pipeline pass: ``PassManager`` reads the
    pass's declarations through it and ``run`` is wrapped in a span."""

    def __init__(self, inner, tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def run(self, ctx, fun):
        with self._tracer.span("pass." + self._inner.name):
            return self._inner.run(ctx, fun)


class SpanEngine:
    """Delegating proxy for a ``NativeEngine``: one ``backend.launch``
    span per ``try_run_map`` (``backend.codegen`` when the statement has
    no plan yet, i.e. the call also emits C and runs ``cc``)."""

    def __init__(self, engine, tracer) -> None:
        self.engine = engine
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self.engine, attr)

    def try_run_map(self, ex, stmt, exp, env, width, dests) -> bool:
        name = (
            "backend.launch" if id(stmt) in self.engine.plans
            else "backend.codegen"
        )
        with self._tracer.span(name) as span:
            ok = self.engine.try_run_map(ex, stmt, exp, env, width, dests)
            span.ok = ok
        return ok

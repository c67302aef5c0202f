"""In-memory span tracer for the traced benchmark run.

Spans are recorded from outside the package: install() replaces module
and class attributes with timing wrappers, so the package source is never
edited and an untraced run pays nothing. Each span has a name, start,
end, parent span and the id of the pass it belongs to. GC pauses reported
through gc.callbacks are charged to the innermost open span. While
memory is set, and tracemalloc is tracing, each span also keeps its
allocation peak.
"""

from __future__ import annotations

import gc
import json
import time
import tracemalloc
from collections import defaultdict
from functools import wraps

_clock = time.perf_counter


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "pass_id",
                 "gc_s", "gc_collections", "base", "peak")

    def __init__(self, sid: int, name: str, parent: int | None, pass_id: int) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.pass_id = pass_id
        self.start = self.end = 0.0
        self.gc_s = 0.0
        self.gc_collections = 0
        self.base = 0
        self.peak = 0


class Tracer:
    """Records nested spans, GC pauses and, optionally, allocation peaks."""

    def __init__(self) -> None:
        self.memory = False
        self.spans: list[Span] = []
        self.gc_pauses: list[tuple[float, float, int]] = []
        self.events = 0
        self.origin = _clock()
        self._stack: list[Span] = []
        self._pass_id = 0
        self._gc_start = 0.0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        self._pass_id = pass_id

    def open(self, name: str) -> Span:
        stack = self._stack
        parent = stack[-1] if stack else None
        span = Span(len(self.spans), name, parent.sid if parent else None, self._pass_id)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None and peak > parent.peak:
                parent.peak = peak
            tracemalloc.reset_peak()
            span.base = current
            span.peak = current
        self.spans.append(span)
        stack.append(span)
        span.start = _clock()
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self.memory:
            peak = tracemalloc.get_traced_memory()[1]
            if peak > span.peak:
                span.peak = peak
            if self._stack and span.peak > self._stack[-1].peak:
                self._stack[-1].peak = span.peak
            tracemalloc.reset_peak()

    def wrap(self, fn, name: str):
        """fn wrapped so that every call is one span called name."""
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    def count_events(self, simulate):
        """simulate wrapped to count machine events through its on_event hook.

        Every dispatch, finish and arrival counts; the idle_state snapshot
        that follows each of them does not.
        """
        tracer = self

        def on_event(event) -> None:
            if event[0] != "idle_state":
                tracer.events += 1

        @wraps(simulate)
        def counted(*args, **kwargs):
            if kwargs.get("on_event") is None:
                kwargs["on_event"] = on_event
            return simulate(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------

    def install(self, targets) -> None:
        """Wrap each (owner, attribute, span name) and start GC accounting.

        A span name of "machine.simulate" also counts events.
        """
        for owner, attr, name in targets:
            original = fn = getattr(owner, attr)
            if name == "machine.simulate":
                fn = self.count_events(fn)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(fn, name))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = _clock()
            return
        end = _clock()
        pause = end - self._gc_start
        self.gc_pauses.append((self._gc_start, end, info["generation"]))
        if self._stack:
            span = self._stack[-1]
            span.gc_s += pause
            span.gc_collections += 1

    # -- reporting -----------------------------------------------------

    def self_times(self, pass_id: int) -> list[tuple[Span, float]]:
        """(span, duration minus the durations of its direct children)."""
        spans = [s for s in self.spans if s.pass_id == pass_id]
        child_total: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_total[s.parent] += s.end - s.start
        return [(s, s.end - s.start - child_total[s.sid]) for s in spans]

    def write_chrome(self, path) -> None:
        """Write every span and GC pause as Chrome Trace Event JSON."""
        origin = self.origin
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": "aridem benchmark"}}]
        for s in self.spans:
            args = {"span": s.sid, "parent": s.parent, "pass": s.pass_id,
                    "gc_s": s.gc_s, "gc_collections": s.gc_collections}
            if s.peak:
                args["peak_alloc_bytes"] = s.peak - s.base
            events.append({"name": s.name, "cat": s.name.split(".")[0], "ph": "X",
                           "pid": 1, "tid": 1, "ts": (s.start - origin) * 1e6,
                           "dur": (s.end - s.start) * 1e6, "args": args})
        for start, end, generation in self.gc_pauses:
            events.append({"name": f"gc gen{generation}", "cat": "gc", "ph": "X",
                           "pid": 1, "tid": 2, "ts": (start - origin) * 1e6,
                           "dur": (end - start) * 1e6})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)

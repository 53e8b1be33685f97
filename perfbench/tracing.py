"""Spans around the benchmark's calls into each layer, kept in memory.

A span is (name, start, end, parent, request id).  The traced run keeps
them in a :class:`Tracer`, derives the per-layer numbers from them and
writes them out at exit as a Chrome ``trace_event`` document.  The
untraced runs never create a tracer, so the end-to-end metrics carry no
tracing cost.
"""

from __future__ import annotations

import contextlib
import cProfile
import itertools
import pstats
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: repro packages whose self time the profiler attributes.
PROFILED_PACKAGES = ("sim", "core", "mem", "interconnect", "workloads",
                     "energy")


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: str | None
    tid: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Collects spans from any thread; nesting is tracked per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tids: dict[int, int] = {}
        self.origin_ns = time.perf_counter_ns()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            return self._tids.setdefault(ident, len(self._tids))

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None):
        """Time the enclosed block as one span under the current one."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.add(name, start, end, request, parent, span_id)

    def add(self, name: str, start_ns: int, end_ns: int,
            request: str | None = None, parent: int | None = None,
            span_id: int | None = None) -> None:
        """Record a span timed elsewhere (e.g. a request's due -> done)."""
        span = Span(span_id if span_id is not None else next(self._ids),
                    name, start_ns, end_ns, parent, request, self._tid())
        with self._lock:
            self.spans.append(span)

    def seconds(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in record order."""
        return [s.seconds for s in self.spans if s.name == name]

    def chrome_trace(self) -> dict:
        """The spans as a Chrome ``trace_event`` document."""
        events: list[dict] = [{"ph": "M", "name": "process_name", "pid": 1,
                               "tid": 0, "args": {"name": "perfbench"}}]
        for tid in sorted(set(self._tids.values())):
            events.append({"ph": "M", "name": "thread_name", "pid": 1,
                           "tid": tid, "args": {"name": f"thread {tid}"}})
        for span in sorted(self.spans, key=lambda s: s.start_ns):
            args = {"span": span.span_id}
            if span.parent is not None:
                args["parent"] = span.parent
            if span.request is not None:
                args["request"] = span.request
            events.append({
                "ph": "X", "name": span.name, "cat": span.name.split(".")[0],
                "pid": 1, "tid": span.tid,
                "ts": max(0.0, (span.start_ns - self.origin_ns) / 1e3),
                "dur": (span.end_ns - span.start_ns) / 1e3, "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def package_self_shares(profile: cProfile.Profile) -> dict[str, float]:
    """Share of profiled time spent in each repro package's own code."""
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    per_package = dict.fromkeys(PROFILED_PACKAGES, 0.0)
    total = 0.0
    for (filename, _line, _func), (_cc, _nc, tt, _ct, _callers) in \
            stats.items():
        total += tt
        parts = Path(filename).parts
        if "repro" in parts:
            index = len(parts) - 1 - parts[::-1].index("repro")
            if index + 1 < len(parts) and parts[index + 1] in per_package:
                per_package[parts[index + 1]] += tt
    if total <= 0:
        return per_package
    return {name: tt / total for name, tt in per_package.items()}

"""In-memory span recorder for the traced benchmark run.

A span covers one call into a layer.  Its self time is the CPU time its
thread spent in it minus the CPU time of its children, read from the
thread's own CPU clock.  In one thread this equals wall-clock self time up to
the moments the process is descheduled; in a thread pool it charges each
thread only for the time it held the interpreter lock, so a pool thread that
waits for the lock inside a span is not counted twice.  Whatever part of the
traced wall time no span's self time covers is reported by the caller as
uncovered time, so self times plus that remainder add up to the wall time.

A span also records its wall-clock start and end and the span that caused
it: its enclosing span, or for the first span of a pool thread the span the
main thread is blocked in.  Spans named in ``keep`` are kept whole for writing
out; the per-task spans of the learner and the sampler are only folded into
per-name totals, which keeps memory bounded on runs of millions of tasks.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time


class Span:
    __slots__ = ("name", "thread", "parent", "start", "end", "cpu_start", "child_cpu",
                 "self_time", "units")

    def __init__(self, name: str, thread: int, parent: "Span | None", start: float, cpu_start: float):
        self.name = name
        self.thread = thread
        self.parent = parent
        self.start = start
        self.end = start
        self.cpu_start = cpu_start
        self.child_cpu = 0.0
        self.self_time = 0.0
        self.units = 0

    def as_dict(self, origin: float, thread: int) -> dict:
        return {
            "name": self.name,
            "thread": thread,
            "parent": self.parent.name if self.parent else None,
            "start": self.start - origin,
            "end": self.end - origin,
            "self": self.self_time,
            "units": self.units,
        }


class Stat:
    __slots__ = ("calls", "total", "self_time", "units")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.units = 0


class Tracer:
    """Spans of every thread.  Each thread touches only its own stack and
    totals, so recording needs no lock."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.thread_time, keep=()):
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._keep = frozenset(keep)
        self._main = threading.get_ident()
        self._stacks: dict[int, list[Span]] = {}
        self._stats: dict[int, dict[str, Stat]] = {}
        self.origin: float | None = None
        self.spans: list[Span] = []

    def open(self, name: str) -> Span:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
            self._stats[tid] = {}
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main) if tid != self._main else None
            parent = main[-1] if main else None
        span = Span(name, tid, parent, self._clock(), self._cpu_clock())
        if self.origin is None:
            self.origin = span.start
        stack.append(span)
        return span

    def close(self, span: Span, units: int = 0) -> None:
        cpu = self._cpu_clock()
        end = self._clock()
        stack = self._stacks[span.thread]
        if stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        cpu_time = cpu - span.cpu_start
        span.self_time = cpu_time - span.child_cpu
        if stack:
            stack[-1].child_cpu += cpu_time
        span.end = end
        span.units = units
        stats = self._stats[span.thread]
        stat = stats.get(span.name)
        if stat is None:
            stat = stats[span.name] = Stat()
        stat.calls += 1
        stat.total += end - span.start
        stat.self_time += span.self_time
        stat.units += units
        if span.name in self._keep:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, fn, name, units=None):
        """Wrap ``fn`` in a span.

        ``name`` is a string or a function of the call's positional arguments;
        ``units(args, result)`` gives the work count added to the span's totals.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span)
                raise
            self.close(span, units(args, result) if units else 0)
            return result
        return wrapper

    def totals(self) -> dict[str, dict]:
        """Per span name over all threads: calls, total wall time, self time
        and units."""
        merged: dict[str, dict] = {}
        for stats in self._stats.values():
            for name, st in stats.items():
                m = merged.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "units": 0})
                m["calls"] += st.calls
                m["total"] += st.total
                m["self"] += st.self_time
                m["units"] += st.units
        return merged

    def dump(self) -> dict:
        """Totals and the kept spans, with times relative to the first span and
        threads numbered in order of appearance."""
        origin = self.origin or 0.0
        threads: dict[int, int] = {}
        return {
            "stats": self.totals(),
            "spans": [s.as_dict(origin, threads.setdefault(s.thread, len(threads)))
                      for s in self.spans],
        }

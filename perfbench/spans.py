"""In-memory spans recorded from outside the gcalc package.

A traced pass swaps selected public functions of gcalc's modules for
wrappers that record one span per call: name, start, end, parent span,
run id (the job instance the call belongs to) and a few work counts.  The
originals are put back when the pass ends, so untraced passes run the
unmodified program.  Nothing inside ``src/gcalc`` is changed.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run_id": self.run_id, "counts": self.counts}


class Tracer:
    """Collects spans.  Each thread keeps its own stack of open spans; a
    span opened on a worker thread with an empty stack (a thread-pool task)
    takes the innermost open span of the main thread as its parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span; yields its counts dict."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        rec = Span(sid, name, time.perf_counter(), 0.0, parent, self.run_id)
        try:
            yield rec.counts
        finally:
            rec.end = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def wrap(self, fn, name: str, count=None):
        """fn wrapped in a span; count(args, kwargs, result) -> work counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as counts:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts.update(count(args, kwargs, result))
                return result

        return traced

    @contextmanager
    def installed(self, patches):
        """Swap (owner, attribute, span name, count) entries for traced
        wrappers; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, count in patches:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_seconds(spans) -> dict:
    """Per span id: duration minus the part of it that child spans cover.
    Children running in parallel on worker threads are counted once."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.seconds - _covered(children.get(s.id, ()), s.start, s.end) for s in spans}

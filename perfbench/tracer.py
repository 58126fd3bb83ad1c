"""Span tracer that rebinds module attributes from outside the program.

Each traced name is a module attribute through which one module calls
another (``moments.g_batch``, ``cli.run``, ...).  While installed, the
attribute points at a wrapper that records a span (id, name, start, end,
parent, attrs) and calls the original; ``remove`` puts every original
back, so untraced repetitions run the program untouched.  Spans stay in
memory until the caller takes them.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans at rebound module attributes.

    Spans opened on worker threads (the cotangent sweep's thread pool)
    take the innermost open span of the main thread as their parent,
    because that call caused them.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._bound: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        """Rebind ``module.attr``; ``note(args, kwargs, result)`` gives attrs."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = note(args, kwargs, result) if note else {}
            tracer.spans.append(Span(sid, name, start, end, parent, attrs))
            return result

        setattr(module, attr, traced)
        self._bound.append((module, attr, original))

    def remove(self) -> None:
        while self._bound:
            module, attr, original = self._bound.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out

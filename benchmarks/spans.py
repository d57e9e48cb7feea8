"""Layer spans recorded from outside the package.

A ``Tracer`` replaces a module attribute with a wrapper that records a
span (name, start, end, parent) around each call and restores the
original on ``close``.  The wrapper must sit on the name the caller
resolves at call time: ``gram`` calls the ``kernel_centered`` it imported
into its own namespace, so that binding is wrapped, not ``quad``'s.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.orders: set = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name, on_result=None):
        """Wrap ``owner.attr``.  ``name`` is a span name or a function of
        the call arguments returning one; ``on_result(tracer, args,
        kwargs, result)`` records counts."""
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(label, time.perf_counter(), 0.0, parent)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            tracer.counts[label + ".calls"] += 1
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))
        return wrapper

    def close(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.orders.clear()

    def totals(self, wall: float) -> dict:
        """Per span name: inclusive seconds (outermost spans of that name)
        and self seconds (minus direct children); ``cli.self_s`` is the
        wall time outside every top-level span."""
        incl: dict = defaultdict(float)
        child: dict = defaultdict(float)
        for s in self.spans:
            d = s.end - s.start
            if s.parent is not None:
                child[s.parent] += d
        for i, s in enumerate(self.spans):
            d = s.end - s.start
            if not self._nested_in_same(i):
                incl[s.name + ".s"] += d
            incl[s.name + ".self_s"] += d - child[i]
        top = sum(s.end - s.start for s in self.spans if s.parent is None)
        incl["cli.self_s"] = wall - top
        return dict(incl)

    def _nested_in_same(self, i: int) -> bool:
        name, p = self.spans[i].name, self.spans[i].parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

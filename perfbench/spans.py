"""Spans recorded from outside the program, by wrapping module-level names.

``miner``, ``dataio`` and ``cli`` look their callees up as module globals
at call time, so replacing ``occumine.miner.construct`` (for example)
with a timing wrapper records every call the miner makes, without any
change to the package.  Wrappers take ``*args, **kwargs`` and hand back
the callee's result unchanged; ``Tracer.restore`` puts every original
back.  A name that no longer exists is not wrapped, and the caller reports
that layer's metrics as absent.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    children_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_time


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, module, attr: str, name: str, observe=None) -> bool:
        """Replace ``module.attr`` with a span-recording wrapper.

        ``observe(args, kwargs, result)``, when given, runs after the span
        has ended, so counting costs land in the caller's self time and
        count towards the tracing overhead.
        """
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].children_time += span.end - span.start
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))
        return True

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.self_time
        return totals

    def durations(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

"""Span tracing by wrapping functions from outside the package.

A ``Tracer`` replaces a function at the attribute its caller looks it up
by (a module global or a class attribute), records one span per call, and
puts the original back on ``restore``. Nested wrapped calls form a stack, so
each span's self time is its duration minus the time covered by the wrapped
calls made inside it.

Wrapping where a function is *defined* is not enough when the caller did
``from .nn import per_sample_grads``: the caller keeps its own binding. So
``patch`` always takes the caller's namespace.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field


@dataclass
class LayerStat:
    """Totals for every call recorded under one name."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counters: dict = field(default_factory=dict)
    spans: list | None = None

    def add(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount


class Tracer:
    """Records call counts, self time and per-layer counters of wrapped calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict = {}
        self._stack: list = []
        self._patches: list = []

    def stat(self, name: str) -> LayerStat:
        if name not in self.stats:
            self.stats[name] = LayerStat()
        return self.stats[name]

    def wrap(self, name: str, fn, on_return=None, keep_spans: bool = False):
        """Return ``fn`` wrapped so each call is a span recorded under ``name``.

        ``on_return(stat, args, kwargs, result)`` runs after the span has
        closed, so counting work does not inflate the layer's own time.
        The wrapper returns what ``fn`` returns and lets what it raises
        propagate unchanged.
        """
        stat = self.stat(name)
        if keep_spans and stat.spans is None:
            stat.spans = []
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                stat.calls += 1
                stat.total_s += span
                stat.self_s += span - children[0]
                if stat.spans is not None:
                    stat.spans.append(span)
            if on_return is not None:
                on_return(stat, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, on_return=None,
              keep_spans: bool = False) -> None:
        """Replace ``owner.attr`` (module global or class attribute) by a wrapper."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(
                self.wrap(name, original.__func__, on_return, keep_spans))
        else:
            replacement = self.wrap(name, original, on_return, keep_spans)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every patched original back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


TAIL_BEYOND = 10


def tail(values) -> float:
    """Highest percentile that still has ``TAIL_BEYOND`` samples above it.

    That is the order statistic with exactly ten samples ranked above it,
    at percentile rank 100 * (n - 10) / n. With ten or fewer samples no
    percentile qualifies and the maximum is returned; report the sample
    count next to it.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail of no values")
    if len(ordered) <= TAIL_BEYOND:
        return float(ordered[-1])
    return float(ordered[-1 - TAIL_BEYOND])

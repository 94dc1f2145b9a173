"""Span tracer that wraps functions where they are called, from outside the program.

A span is one call of a wrapped function. Spans nest through a stack, so each
span knows how much of its duration its wrapped children covered; the rest is
its self time. Only per-name aggregates are kept: calls, inclusive seconds and
self seconds. Because every span's self time is its duration minus its
children's durations, the self times of all spans add up to the durations of
the outermost spans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

# Marker attribute set on every wrapper, so a scan can prove none is left.
WRAPPER_MARK = "_perfbench_span"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.root_s = 0.0  # summed duration of spans opened with an empty stack
        self._stack: list[list[float]] = []  # per open span: [child seconds]
        self._sites: list[tuple[Any, str, Any]] = []  # (owner, attribute, original)

    def wrap_function(
        self,
        name: str,
        fn: Callable,
        after: Callable[[tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """A wrapper that records one span per call of ``fn``.

        ``after(args, kwargs, result)`` runs once the span is closed, so its
        cost lands in the caller's span; keep it to O(1) bookkeeping.
        """
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.root_s += duration
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(wrapper, WRAPPER_MARK, name)
        return wrapper

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Callable[[tuple, dict, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a function or a classmethod) by a wrapper."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self.wrap_function(name, original.__func__, after))
        else:
            replacement = self.wrap_function(name, original, after)
        self._sites.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._sites:
            owner, attr, original = self._sites.pop()
            setattr(owner, attr, original)

    def self_by_layer(self) -> dict[str, float]:
        """Self seconds summed per layer, the part of a span name before the dot."""
        layers: dict[str, float] = {}
        for name, s in self.stats.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + s.self_s
        return layers


def is_wrapper(obj: Any) -> bool:
    inner = obj.__func__ if isinstance(obj, classmethod) else obj
    return hasattr(inner, WRAPPER_MARK)

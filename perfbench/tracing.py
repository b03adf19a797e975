"""In-memory spans around calls into the program's public functions.

The benchmark traces from the outside: :class:`Shims` swaps a module
function, a class method or one instance's bound method for a wrapper that
:meth:`Tracer.wrap` builds, and puts the original back afterwards.  The
wrapped callable still runs, with the same arguments, so the program takes
the code path it would take untraced.

A span is ``(span_id, parent_id, name, start_s, end_s, pid)`` on the
host's monotonic clock (``time.perf_counter``).  Spans stay in
memory until :meth:`Tracer.write` dumps them at exit.  A span's *self time*
is its duration minus the part of it that its children cover;
:func:`summarise` computes it per span name.
"""

from __future__ import annotations

import json
import os
import types
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

Span = Tuple[int, int, str, float, float, int]

__all__ = ["Shims", "Span", "SpanStats", "Tracer", "self_times", "summarise"]


class Tracer:
    """Records nested spans for one benchmark process."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 1
        self._pid = os.getpid()

    # -- recording -------------------------------------------------------------
    def _open(self) -> Tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans.append((span_id, parent, name, start, end, self._pid))

    def span(self, name: str) -> "_SpanContext":
        """``with tracer.span(name):`` records one span around the block."""
        return _SpanContext(self, name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            span_id, parent = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, name, start)

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name: str, iterable: Iterable) -> Iterator:
        """Iterate ``iterable``, recording each ``next()`` as a span.

        Lazy producers do their work when the consumer pulls, so the span
        sits under whatever span the consumer is in at that moment.
        """
        iterator = iter(iterable)
        done = object()
        while True:
            span_id, parent = self._open()
            start = perf_counter()
            try:
                item = next(iterator, done)
            finally:
                self._close(span_id, parent, name, start)
            if item is done:
                return
            yield item

    # -- output ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, pid in self.spans:
                record = {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start_s": start,
                    "end_s": end,
                    "pid": pid,
                    "workload": self.workload,
                }
                handle.write(json.dumps(record) + "\n")


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_ids", "_start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        self._ids = self._tracer._open()
        self._start = perf_counter()

    def __exit__(self, *exc) -> None:
        span_id, parent = self._ids
        self._tracer._close(span_id, parent, self._name, self._start)


@dataclass
class SpanStats:
    """Totals over every span of one name."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: duration minus the union of its children."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, parent, _, start, end, _ in spans:
        children.setdefault(parent, []).append((start, end))
    return {
        span_id: (end - start) - _covered(children.get(span_id, []), start, end)
        for span_id, _, _, start, end, _ in spans
    }


def summarise(spans: Sequence[Span]) -> Dict[str, SpanStats]:
    """Count, total time and self time per span name."""
    own = self_times(spans)
    stats: Dict[str, SpanStats] = {}
    for span_id, _, name, start, end, _ in spans:
        entry = stats.setdefault(name, SpanStats())
        entry.count += 1
        entry.total_s += end - start
        entry.self_s += own[span_id]
    return stats


class Shims:
    """Temporarily replaces attributes of modules, classes or instances.

    Instances are patched with ``object.__setattr__`` so frozen dataclasses
    (``CarbonIntensity``, ``AdmissionControl``) can be traced too; the
    instance attribute shadows the class's method, and the object's type is
    unchanged, so type checks in the program still see the original class.
    """

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        present = name in vars(owner)
        self._undo.append((owner, name, present, vars(owner).get(name)))
        if isinstance(owner, (type, types.ModuleType)):
            setattr(owner, name, replacement)
        else:
            object.__setattr__(owner, name, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, name, present, original = self._undo.pop()
            plain = isinstance(owner, (type, types.ModuleType))
            if present:
                (setattr if plain else object.__setattr__)(owner, name, original)
            else:
                (delattr if plain else object.__delattr__)(owner, name)

    def __enter__(self) -> "Shims":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

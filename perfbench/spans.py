"""Span recording for the traced benchmark run, kept entirely outside ``src/``.

The benchmark attributes host time to the repo's layers without editing
them: :class:`Patches` swaps a layer's public function for a timing wrapper
on the *name bound in the calling module* (``repro.api.session.fp_ip_points``
rather than ``repro.ipu.engine.fp_ip_points``), so exactly the calls that
cross that boundary are timed, and restores every name afterwards.

Self time is computed from interval unions (:func:`self_times`): a span's
self time is its duration minus the wall-clock union of its children, so
children that ran concurrently on thread-pool workers are never counted
twice. Work submitted to a pool is parented under the submitting span by
:class:`PropagatingPool`, which stands in for ``ThreadPoolExecutor`` in the
modules that fan out.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

__all__ = ["Span", "Tracer", "Patches", "PropagatingPool", "union_length",
           "self_times", "layer_totals"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


class Tracer:
    """In-memory span recorder; thread-safe, one stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, time.perf_counter(),
                    parent=stack[-1] if stack else None)
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def call(self, name: str, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def adopting(self, parent: int | None, fn):
        """``fn`` wrapped to run with ``parent`` as its thread's base span."""
        if parent is None:
            return fn

        @functools.wraps(fn)
        def run(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return run

    def take(self) -> list[Span]:
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


class PropagatingPool(ThreadPoolExecutor):
    """``ThreadPoolExecutor`` whose tasks inherit the submitter's open span.

    ``tracer`` is set on the subclass built by :meth:`bound`; ``map`` goes
    through ``submit``, so both entry points propagate.
    """

    tracer: Tracer

    @classmethod
    def bound(cls, tracer: Tracer) -> type:
        return type("TracedThreadPoolExecutor", (cls,), {"tracer": tracer})

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(self.tracer.adopting(self.tracer.current(), fn),
                              *args, **kwargs)


class Patches:
    """Swap attributes for wrappers and put every original back on restore."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        """Set ``owner.name`` to ``value``; the module or class must define
        ``name`` itself (an inherited attribute raises ``KeyError``)."""
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def span(self, tracer: Tracer, owner, name: str, layer: str) -> None:
        """Time every call through ``owner.name`` as a ``layer`` span.

        Plain functions, methods, classmethods and staticmethods are all
        handled; the wrapper keeps the original's calling convention.
        """
        raw = vars(owner)[name]
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        original = raw.__func__ if descriptor else raw

        @functools.wraps(original)
        def timed(*args, **kwargs):
            return tracer.call(layer, original, *args, **kwargs)

        self.set(owner, name, descriptor(timed) if descriptor else timed)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals (overlaps once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, tuple[float, float, float]]:
    """Per span id: ``(self_s, child_union_s, child_sum_s)``.

    Children are clipped to their parent's interval; ``child_union_s``
    counts concurrent children once, ``child_sum_s`` adds them up.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        clipped = [(max(c.start, span.start), min(c.end, span.end))
                   for c in children.get(span.id, ())]
        union = union_length(clipped)
        summed = sum(max(0.0, end - start) for start, end in clipped)
        out[span.id] = (max(0.0, (span.end - span.start) - union), union, summed)
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer name: summed ``self_s``/``child_union_s``/``child_sum_s``
    and the span count ``calls``."""
    times = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        self_s, union, summed = times[span.id]
        row = out.setdefault(span.name, {"self_s": 0.0, "child_union_s": 0.0,
                                         "child_sum_s": 0.0, "calls": 0})
        row["self_s"] += self_s
        row["child_union_s"] += union
        row["child_sum_s"] += summed
        row["calls"] += 1
    return out

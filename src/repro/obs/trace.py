"""Hierarchical spans with cross-thread / cross-HTTP context.

Design notes
------------
* **Disarmed is the default and costs ~nothing.**  ``trace_span()`` (the
  hook every layer calls) is a module-global load plus a ``None`` check that
  returns a shared no-op context manager — the same discipline as
  ``repro.chaos.engine.chaos_hook``.
* **Armed** (``arm()`` / ``install()``), a :class:`Tracer` keeps a bounded
  list of *finished* spans as plain JSON-safe dicts.  Open spans live on a
  per-thread stack; finished spans are also appended to any *collectors*
  active on that thread (used by the sweep service to hand a job's spans
  back to the submitter).
* **Propagation.**  Same-process thread pools use
  ``trace_capture()``/``trace_attach()`` (the captured state carries the
  current span reference *and* the active collectors, since thread-locals do
  not follow work into a pool thread).  HTTP hops ship a tiny *wire
  context* ``{"trace": ..., "span": ...}`` — ``trace_wire()`` creates it,
  :meth:`Tracer.adopt` re-parents under it.
* **Telemetry never affects results.**  Span/trace ids are random, spans are
  excluded from every fingerprint, and nothing here touches operand or
  result buffers; byte-identity armed-vs-disarmed is asserted in
  ``tests/obs/``.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import secrets
import threading
import time
from typing import Any, Iterable, Optional

__all__ = [
    "Span",
    "Tracer",
    "arm",
    "current_tracer",
    "disarm",
    "ensure_armed",
    "install",
    "trace_attach",
    "trace_capture",
    "trace_ingest",
    "trace_span",
    "trace_wire",
    "parse_trace_header",
    "format_trace_header",
    "TRACE_HEADER",
]

TRACE_HEADER = "X-Repro-Trace"

_TRACER: Optional["Tracer"] = None
_ARM_LOCK = threading.Lock()
# One span-id counter per process, shared by every Tracer: two tracers armed
# in one process never mint the same id, so merged spans are never dropped
# as duplicates.
_SPAN_IDS = itertools.count(1)


class Span:
    """One timed operation.  Mutable while open; serialized via ``to_dict``."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_wall",
        "_t0",
        "duration",
        "attrs",
        "pid",
        "tid",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        attrs: dict,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_wall = time.time()
        self._t0 = time.perf_counter()
        self.duration = 0.0
        self.attrs = attrs
        self.pid = os.getpid()
        self.tid = threading.get_ident()

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to an open span (chainable)."""
        self.attrs.update(attrs)
        return self

    def finish(self) -> None:
        self.duration = time.perf_counter() - self._t0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_wall": self.start_wall,
            "duration": self.duration,
            "attrs": self.attrs,
            "pid": self.pid,
            "tid": self.tid,
        }


class _NoopSpan:
    """Absorbs ``.set(...)`` on the disarmed fast path."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


class _NoopCM:
    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return _NOOP_SPAN

    def __exit__(self, *exc: Any) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()
_NOOP_CM = _NoopCM()


class _SpanCM:
    """Context manager for one real span; pushes/pops the thread stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self._span = tracer._open(name, attrs)

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close(self._span)
        return False


class _TLS(threading.local):
    def __init__(self) -> None:  # fresh per thread
        self.stack: list = []  # entries: Span or ("adopted", trace_id, span_id)
        self.collectors: tuple = ()


class Tracer:
    """Records finished spans (bounded) and tracks per-thread span context."""

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.dropped = 0
        self._spans: list = []
        self._ids: set = set()
        self._lock = threading.Lock()
        self._tls = _TLS()

    # -- id generation ---------------------------------------------------
    def _new_trace_id(self) -> str:
        return secrets.token_hex(8)

    def _new_span_id(self) -> str:
        return f"{os.getpid():x}-{next(_SPAN_IDS):x}"

    # -- span lifecycle --------------------------------------------------
    def _current_ctx(self) -> Optional[tuple]:
        stack = self._tls.stack
        if not stack:
            return None
        top = stack[-1]
        if isinstance(top, Span):
            return (top.trace_id, top.span_id)
        return (top[1], top[2])

    def _open(self, name: str, attrs: dict) -> Span:
        ctx = self._current_ctx()
        if ctx is None:
            trace_id, parent_id = self._new_trace_id(), None
        else:
            trace_id, parent_id = ctx
        span = Span(name, trace_id, self._new_span_id(), parent_id, attrs)
        self._tls.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.finish()
        stack = self._tls.stack
        if stack and stack[-1] is span:
            stack.pop()
        else:  # unbalanced exit — drop up to and including this span
            while stack:
                if stack.pop() is span:
                    break
        d = span.to_dict()
        self._record(d)
        for collector in self._tls.collectors:
            collector.append(d)

    def _record(self, d: dict) -> bool:
        with self._lock:
            if d["span_id"] in self._ids:
                return False
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return False
            self._ids.add(d["span_id"])
            self._spans.append(d)
        return True

    def span(self, name: str, **attrs: Any) -> _SpanCM:
        return _SpanCM(self, name, attrs)

    # -- propagation -----------------------------------------------------
    def wire_context(self) -> Optional[dict]:
        """Picklable ``{"trace", "span"}`` for an HTTP header."""
        ctx = self._current_ctx()
        if ctx is None:
            return None
        return {"trace": ctx[0], "span": ctx[1]}

    def capture(self) -> dict:
        """Snapshot of this thread's context for a same-process pool thread."""
        ctx = self._current_ctx()
        return {"ctx": ctx, "collectors": self._tls.collectors}

    @contextlib.contextmanager
    def attach(self, state: dict):
        """Adopt a ``capture()`` snapshot on the current (pool) thread."""
        tls = self._tls
        saved_stack, saved_coll = tls.stack, tls.collectors
        tls.stack = (
            [] if state["ctx"] is None else [("adopted", state["ctx"][0], state["ctx"][1])]
        )
        tls.collectors = state["collectors"]
        try:
            yield
        finally:
            tls.stack, tls.collectors = saved_stack, saved_coll

    @contextlib.contextmanager
    def adopt(self, wire: Optional[dict], collector: Optional[list] = None):
        """Adopt a cross-process/HTTP wire context, optionally collecting the
        spans finished on this thread while adopted."""
        tls = self._tls
        saved_stack, saved_coll = tls.stack, tls.collectors
        tls.stack = [] if wire is None else [("adopted", wire["trace"], wire["span"])]
        if collector is not None:
            tls.collectors = saved_coll + (collector,)
        try:
            yield
        finally:
            tls.stack, tls.collectors = saved_stack, saved_coll

    def ingest(self, span_dicts: Iterable[dict]) -> int:
        """Merge span dicts returned by a worker / remote service.

        Duplicates (same span id — e.g. an in-process ``LocalEndpoint``
        whose spans were already recorded directly) are skipped.  Returns
        the number of spans actually added.
        """
        added = 0
        fresh = []
        for d in span_dicts:
            if self._record(d):
                added += 1
                fresh.append(d)
        for collector in self._tls.collectors:
            collector.extend(fresh)
        return added

    # -- inspection ------------------------------------------------------
    def export(self) -> list:
        """Finished spans as dicts (insertion order, shallow copy)."""
        with self._lock:
            return list(self._spans)

    def spans_named(self, name: str) -> list:
        return [s for s in self.export() if s["name"] == name]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._ids.clear()
            self.dropped = 0


# ---------------------------------------------------------------------------
# module-level arming + fast-path hooks
# ---------------------------------------------------------------------------


def arm(tracer: Optional[Tracer] = None) -> Tracer:
    """Install ``tracer`` (or a fresh one) as the process-global tracer."""
    global _TRACER
    with _ARM_LOCK:
        _TRACER = tracer if tracer is not None else Tracer()
        return _TRACER


def disarm() -> None:
    global _TRACER
    with _ARM_LOCK:
        _TRACER = None


def current_tracer() -> Optional[Tracer]:
    return _TRACER


def ensure_armed() -> Tracer:
    """Return the armed tracer, arming a fresh one if needed (used by the
    sweep service when a traced request arrives on a cold process)."""
    global _TRACER
    t = _TRACER
    if t is not None:
        return t
    with _ARM_LOCK:
        if _TRACER is None:
            _TRACER = Tracer()
        return _TRACER


@contextlib.contextmanager
def install(tracer: Optional[Tracer] = None):
    """``with install() as tracer:`` — arm for the block, restore after."""
    global _TRACER
    with _ARM_LOCK:
        prev = _TRACER
        _TRACER = tracer if tracer is not None else Tracer()
        active = _TRACER
    try:
        yield active
    finally:
        with _ARM_LOCK:
            _TRACER = prev


def trace_span(name: str, **attrs: Any):
    """The universal hook.  Disarmed: one global load + ``None`` check."""
    t = _TRACER
    if t is None:
        return _NOOP_CM
    return t.span(name, **attrs)


def trace_wire() -> Optional[dict]:
    """Current wire context, or ``None`` when disarmed / no open span."""
    t = _TRACER
    if t is None:
        return None
    return t.wire_context()


def trace_capture() -> Optional[dict]:
    """Capture for a same-process pool thread; ``None`` when disarmed."""
    t = _TRACER
    if t is None:
        return None
    return t.capture()


def trace_attach(state: Optional[dict]):
    """Attach a ``trace_capture()`` snapshot; no-op when disarmed/None."""
    t = _TRACER
    if t is None or state is None:
        return _NOOP_CM
    return t.attach(state)


def trace_ingest(span_dicts: Optional[Iterable[dict]]) -> int:
    """Merge remote spans into the armed tracer (no-op disarmed)."""
    t = _TRACER
    if t is None or not span_dicts:
        return 0
    return t.ingest(span_dicts)


# ---------------------------------------------------------------------------
# HTTP header codec
# ---------------------------------------------------------------------------


def format_trace_header(wire: dict) -> str:
    return f"{wire['trace']}:{wire['span']}"


def parse_trace_header(value: Optional[str]) -> Optional[dict]:
    """Parse ``X-Repro-Trace``; malformed headers are ignored, not fatal."""
    if not value:
        return None
    parts = value.strip().split(":")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        return None
    return {"trace": parts[0], "span": parts[1]}

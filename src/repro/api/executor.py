"""Pluggable execution backends: one interface, serial / thread.

Every backend maps a function over items (:meth:`map`) and counts its
fan-out straight into the :class:`ExecutorStats` it was built with — its
session's stats object, so session stats are live and need no sync step:

``SerialExecutor``
    runs everything inline; the reference semantics. Its sessions call
    :func:`repro.ipu.engine.fp_ip_points` directly.

``ThreadExecutor``
    broadcast-slabs the operand plans and runs :func:`fp_ip_points` per span
    on a thread pool (:meth:`ThreadExecutor.run_points`). NumPy releases the
    GIL inside the kernel's hot loops, so this scales on multi-core hosts
    without any serialization cost.

Both also queue single tasks (:meth:`SerialExecutor.submit`): the serial
backend runs one at once and hands back a finished future, the thread
backend queues it on its pool, so a caller can overlap its own work with
the kernels through one code path. A task already running on a backend's
pool runs any further work inline (:meth:`SerialExecutor.in_task`): a pool
thread that waited on its own pool could deadlock it.

Task splitting is **chunk-granular**: spans along the leading batch axis are
aligned to the engine's cache-sized row blocks
(:func:`repro.ipu.engine.default_chunk_rows`), so every backend processes
the same chunks in the same order and the results are bit-identical to
serial execution (rows are independent; verified by the parity suite).

The declarative face is :class:`ExecutorSpec` (``{"backend": "thread",
"workers": 8}``), embedded in ``RunSpec``/``DesignSweepSpec`` JSON and
surfaced as ``runner --backend``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import counter
from repro.obs.trace import trace_attach, trace_capture, trace_span
from repro.ipu.engine import (
    FPIPBatchResult,
    PackedOperands,
    _broadcast_plan,
    default_chunk_rows,
    fp_ip_points,
)

__all__ = ["ExecutorSpec", "ExecutorStats", "BACKENDS", "make_executor",
           "SerialExecutor", "ThreadExecutor"]

BACKENDS = ("serial", "thread")


@dataclass
class ExecutorStats:
    """The fan-out counters every backend writes, declared once.

    ``backend``/``workers`` describe the backend; ``tasks_dispatched``
    counts tasks actually handed to a pool. Session stats classes extend
    this one, so benchmark JSON and metrics read the counters off the
    session directly.
    """

    backend: str = "serial"
    workers: int = 1
    tasks_dispatched: int = counter()


@dataclass(frozen=True)
class ExecutorSpec:
    """Declarative backend selection: JSON-safe, embeddable in run specs.

    ``workers=None`` means "all cores" for pooled backends and 1 for
    serial. ``from_dict`` accepts ``None`` (→ default serial spec), a bare
    backend string, a dict, or an existing spec, so spec JSONs may say
    ``"executor": {"backend": "thread", "workers": 8}`` or just
    ``"executor": "thread"``.
    """

    backend: str = "serial"
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown executor backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def resolved_workers(self) -> int:
        if self.workers is not None:
            return int(self.workers)
        if self.backend == "serial":
            return 1
        return os.cpu_count() or 1

    def merged(self, backend: str | None = None,
               workers: int | None = None) -> "ExecutorSpec":
        """This spec with CLI-style overrides applied (None = keep)."""
        return ExecutorSpec(backend or self.backend,
                            self.workers if workers is None else workers)

    def to_dict(self) -> dict:
        return {"backend": self.backend, "workers": self.workers}

    @classmethod
    def from_dict(cls, d) -> "ExecutorSpec":
        if d is None:
            return cls()
        if isinstance(d, ExecutorSpec):
            return d
        if isinstance(d, str):
            return cls(backend=d)
        return cls(**d)


def resolve_executor_spec(backend=None, workers: int | None = None) -> ExecutorSpec:
    """The sessions' constructor convention, preserved from the PR-2 API:
    ``workers > 1`` with no explicit backend means threads (the historical
    behavior), ``workers in (None, 1)`` means serial. ``backend`` may be a
    name, an :class:`ExecutorSpec`, or a dict."""
    if backend is None:
        name = "serial" if workers is None or workers <= 1 else "thread"
        return ExecutorSpec(name, workers)
    spec = ExecutorSpec.from_dict(backend)
    if workers is not None:
        spec = spec.merged(workers=workers)
    return spec


def chunk_spans(dim0: int, inner: int, n: int, parts_limit: int,
                chunk_rows: int | None = None) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` spans of the leading axis, one per task.

    Span edges fall on multiples of the engine's row block (the same
    ``chunk_rows``-derived block :func:`fp_ip_points` chunks by), so a
    split run processes exactly the chunks a serial run would — task
    granularity never cuts a cache-sized chunk in half. When the batch
    holds fewer full chunks than workers, the granule shrinks so every
    worker still gets a span (splitting is bit-neutral at any granularity;
    alignment is a locality preference, not a correctness requirement).
    """
    if dim0 <= 0:
        return []
    rows_per_chunk = default_chunk_rows(n) if chunk_rows is None else chunk_rows
    block = max(1, rows_per_chunk // max(inner, 1))
    block = max(1, min(block, -(-dim0 // max(parts_limit, 1))))
    nblocks = -(-dim0 // block)
    parts = max(1, min(parts_limit, nblocks))
    edges = [min(dim0, (nblocks * i // parts) * block) for i in range(parts + 1)]
    edges[-1] = dim0
    return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]


def _slab(plan: PackedOperands, shape: tuple[int, ...], lo: int, hi: int) -> PackedOperands:
    """One task's slice of a plan broadcast to the pair shape (zero-copy)."""
    sign, exp, nib = _broadcast_plan(plan, shape)
    return PackedOperands(plan.fmt, sign[lo:hi], exp[lo:hi], nib[lo:hi])


def _concat_results(slabs: list[list[FPIPBatchResult]]) -> list[FPIPBatchResult]:
    """Reassemble per-span result lists (span-major) into whole-batch results."""
    out = []
    for i in range(len(slabs[0])):
        parts = [s[i] for s in slabs]
        out.append(FPIPBatchResult(
            values=np.concatenate([p.values for p in parts]),
            rounded=np.concatenate([p.rounded for p in parts]),
            max_exp=np.concatenate([p.max_exp for p in parts]),
            alignment_cycles=np.concatenate([p.alignment_cycles for p in parts]),
            total_cycles=np.concatenate([p.total_cycles for p in parts]),
        ))
    return out


def _attached(state: dict, fn):
    """Wrap ``fn`` so pool threads run it under the captured trace context."""
    def wrapped(*args):
        with trace_attach(state):
            return fn(*args)
    return wrapped


# Which executor's pool the current thread belongs to (set once per pool
# thread by the pool's initializer).
_POOL_THREAD = threading.local()


def _enter_pool(executor) -> None:
    _POOL_THREAD.owner = executor


class SerialExecutor:
    """Inline execution; the reference every other backend must match.

    The thread backend extends it: it shares this constructor (a worker
    count plus the stats object the counters go to) and overrides what it
    parallelizes.
    """

    name = "serial"

    def __init__(self, workers: int, stats: ExecutorStats):
        self.workers = workers
        self.stats = stats
        stats.backend, stats.workers = self.name, workers
        self.lock = threading.Lock()  # guards the stats counters

    def in_task(self) -> bool:
        """Whether the calling thread is one of this backend's pool threads."""
        return False

    def submit(self, fn, *args) -> Future:
        """Run ``fn(*args)`` now and hand back its finished future (an
        exception propagates from here)."""
        future = Future()
        future.set_result(fn(*args))
        return future

    def map(self, fn, items) -> list:
        return [fn(item) for item in items]

    def close(self) -> None:
        pass


class ThreadExecutor(SerialExecutor):
    """Thread-pool fan-out (NumPy kernels release the GIL)."""

    name = "thread"

    def __init__(self, workers: int, stats: ExecutorStats):
        super().__init__(workers, stats)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self.lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-exec",
                    initializer=_enter_pool, initargs=(self,))
            return self._pool

    def in_task(self) -> bool:
        return getattr(_POOL_THREAD, "owner", None) is self

    def submit(self, fn, *args) -> Future:
        """Queue ``fn(*args)`` on the pool under the caller's trace context
        (inline when called from the pool itself)."""
        if self.in_task():
            return super().submit(fn, *args)
        pool = self._ensure_pool()
        state = trace_capture()
        future = pool.submit(fn if state is None else _attached(state, fn), *args)
        with self.lock:
            self.stats.tasks_dispatched += 1
        return future

    def run_points(self, pa, pb, points, shape, chunk_rows=None):
        dim0 = shape[0]
        inner = int(np.prod(shape[1:-1], dtype=np.int64))
        spans = chunk_spans(dim0, inner, shape[-1], self.workers, chunk_rows)
        if len(spans) <= 1:
            return fp_ip_points(pa, pb, points, chunk_rows=chunk_rows)

        def span_task(lo, hi):
            with trace_span("executor.chunk", backend=self.name, lo=lo, hi=hi):
                return fp_ip_points(_slab(pa, shape, lo, hi),
                                    _slab(pb, shape, lo, hi), points,
                                    chunk_rows=chunk_rows)

        futures = [self.submit(span_task, lo, hi) for lo, hi in spans]
        return _concat_results([f.result() for f in futures])

    def map(self, fn, items) -> list:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        futures = [self.submit(fn, item) for item in items]
        return [f.result() for f in futures]

    def close(self) -> None:
        with self.lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


_BACKEND_CLASSES = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
}


def make_executor(backend=None, workers: int | None = None,
                  stats: ExecutorStats | None = None):
    """Build an executor from a spec/name/dict plus optional worker override;
    it counts into ``stats`` (a fresh :class:`ExecutorStats` by default)."""
    spec = resolve_executor_spec(backend, workers)
    workers = 1 if spec.backend == "serial" else spec.resolved_workers
    return _BACKEND_CLASSES[spec.backend](
        workers, ExecutorStats() if stats is None else stats)

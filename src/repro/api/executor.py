"""Pluggable execution backends: one interface, serial / thread / process.

Both sessions used to own a private ``ThreadPoolExecutor``. This module
factors the fan-out into interchangeable backends behind one interface so
truly million-sample sweeps can use real processes:

``SerialExecutor``
    runs everything inline; the reference semantics.

``ThreadExecutor``
    the former session plumbing: broadcast-slab the operand plans and run
    :func:`repro.ipu.engine.fp_ip_points` per span on a thread pool. NumPy
    releases the GIL inside the kernel's hot loops, so this scales on
    multi-core hosts without any serialization cost.

``ProcessExecutor``
    a fork-server-free ``ProcessPoolExecutor`` (fork context where
    available). Operand plans are *not* pickled per task: each plan's
    decoded planes are exported once per call into
    ``multiprocessing.shared_memory`` via the
    :meth:`~repro.ipu.engine.PackedOperands.to_buffers` codec, and workers
    reconstruct zero-copy views (:meth:`from_buffers`) before running their
    span. Kernel *results* are zero-copy too, symmetric with the operand
    path: the parent preallocates one shared block (a file in ``/dev/shm``)
    laid out per :func:`_result_layout`, workers write their span's exact
    register values straight into it through ``fp_ip_points(out=...)`` and
    return ``None``, and the parent wraps views — no kernel output is ever
    pickled (``results_pickled`` stays 0). ``shm_bytes`` splits into
    ``shm_bytes_tx`` (operand segments out) and ``shm_bytes_rx`` (result
    blocks back). Segments and result files are unlinked as soon as the
    call completes; the ``live_segments``/``live_result_files`` properties
    and the cleanup tests pin that neither outlives :meth:`close`.

Task splitting is **chunk-granular**: spans along the leading batch axis are
aligned to the engine's cache-sized row blocks
(:func:`repro.ipu.engine.default_chunk_rows`), so every backend processes
the same chunks in the same order and the results are bit-identical to
serial execution (rows are independent; verified by the parity suite).

The declarative face is :class:`ExecutorSpec` (``{"backend": "process",
"workers": 8}``), embedded in ``RunSpec``/``DesignSweepSpec`` JSON and
surfaced as ``runner --backend``.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.chaos.engine import chaos_hook
from repro.fp.formats import np_float_dtype
from repro.obs.trace import (
    trace_attach,
    trace_capture,
    trace_ingest,
    trace_span,
    trace_wire,
    worker_trace,
)
from repro.ipu.engine import (
    FPIPBatchResult,
    PackedOperands,
    _broadcast_plan,
    default_chunk_rows,
    fp_ip_points,
)

__all__ = ["ExecutorSpec", "BACKENDS", "make_executor",
           "SerialExecutor", "ThreadExecutor", "ProcessExecutor"]

BACKENDS = ("serial", "thread", "process")


@dataclass(frozen=True)
class ExecutorSpec:
    """Declarative backend selection: JSON-safe, embeddable in run specs.

    ``workers=None`` means "all cores" for pooled backends and 1 for
    serial. ``from_dict`` accepts ``None`` (→ default serial spec), a bare
    backend string, a dict, or an existing spec, so spec JSONs may say
    ``"executor": {"backend": "process", "workers": 8}`` or just
    ``"executor": "process"``.
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
    def wrapped(item):
        with trace_attach(state):
            return fn(item)
    return wrapped


class SerialExecutor:
    """Inline execution; the reference every other backend must match."""

    name = "serial"

    def __init__(self, workers: int = 1):
        self.workers = 1
        self.tasks_dispatched = 0
        self.shm_bytes = 0
        self.shm_bytes_tx = 0
        self.shm_bytes_rx = 0
        self.results_pickled = 0
        # every backend exposes the full counter set (sessions sync these
        # attributes directly, no getattr fallbacks); serial never restarts
        self.worker_restarts = 0
        self.chunks_redispatched = 0

    def run_points(self, pa, pb, points, shape, chunk_rows=None):
        return fp_ip_points(pa, pb, points, chunk_rows=chunk_rows)

    def map(self, fn, items) -> list:
        return [fn(item) for item in items]

    def map_tasks(self, fn, payloads) -> list:
        return [fn(p) for p in payloads]

    @contextmanager
    def plan_scope(self):
        """No-op here; see :meth:`ProcessExecutor.plan_scope`."""
        yield

    def close(self) -> None:
        pass


class ThreadExecutor:
    """Thread-pool fan-out (NumPy kernels release the GIL)."""

    name = "thread"

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))
        self.tasks_dispatched = 0
        self.shm_bytes = 0
        self.shm_bytes_tx = 0
        self.shm_bytes_rx = 0
        self.results_pickled = 0
        self.worker_restarts = 0
        self.chunks_redispatched = 0
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-exec")
            return self._pool

    def run_points(self, pa, pb, points, shape, chunk_rows=None):
        dim0 = shape[0]
        inner = int(np.prod(shape[1:-1], dtype=np.int64))
        spans = chunk_spans(dim0, inner, shape[-1], self.workers, chunk_rows)
        if len(spans) <= 1:
            return fp_ip_points(pa, pb, points, chunk_rows=chunk_rows)
        pool = self._ensure_pool()
        state = trace_capture()
        if state is None:  # disarmed fast path: submit the kernel directly
            futures = [
                pool.submit(fp_ip_points, _slab(pa, shape, lo, hi),
                            _slab(pb, shape, lo, hi), points, chunk_rows)
                for lo, hi in spans
            ]
        else:
            def traced(lo, hi):
                with trace_attach(state), trace_span(
                        "executor.chunk", backend="thread", lo=lo, hi=hi):
                    return fp_ip_points(_slab(pa, shape, lo, hi),
                                        _slab(pb, shape, lo, hi), points,
                                        chunk_rows=chunk_rows)
            futures = [pool.submit(traced, lo, hi) for lo, hi in spans]
        with self._lock:
            self.tasks_dispatched += len(futures)
        return _concat_results([f.result() for f in futures])

    def map(self, fn, items) -> list:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        state = trace_capture()
        if state is not None:
            fn = _attached(state, fn)
        futures = [pool.submit(fn, item) for item in items]
        with self._lock:
            self.tasks_dispatched += len(futures)
        return [f.result() for f in futures]

    map_tasks = map

    @contextmanager
    def plan_scope(self):
        """No-op here; see :meth:`ProcessExecutor.plan_scope`."""
        yield

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


# -- process backend ----------------------------------------------------------

# Result blocks live as plain files in /dev/shm (tmpfs) rather than
# multiprocessing.shared_memory segments: a file + mmap needs no resource
# tracker bookkeeping in either process, and the parent can unlink it the
# moment the futures resolve while its mapped views stay valid.
_RESULT_DIR = "/dev/shm" if os.path.isdir("/dev/shm") else None


def _result_layout(points, rows: int) -> tuple[list, int]:
    """Field layout of one result block: per point, five row-length arrays
    (values, rounded, max_exp, alignment_cycles, total_cycles), each
    16-byte aligned — the result-side mirror of :func:`_export_plan`."""
    layout, total = [], 0
    for p in points:
        fields = []
        for dstr in ("<f8", np.dtype(np_float_dtype(p.acc_fmt)).str,
                     "<i8", "<i8", "<i8"):
            total = -(-total // 16) * 16
            fields.append((total, dstr))
            total += rows * np.dtype(dstr).itemsize
        layout.append(fields)
    return layout, max(total, 1)


def _create_result_file(nbytes: int) -> str:
    """Preallocate a result block; returns its path (parent unlinks it)."""
    fd, path = tempfile.mkstemp(prefix="repro-result-", dir=_RESULT_DIR)
    try:
        os.ftruncate(fd, nbytes)
    finally:
        os.close(fd)
    return path


def _result_views(mm, layout, rows: int) -> list[tuple[np.ndarray, ...]]:
    """Per-point 5-tuples of flat row-length views into a mapped block."""
    return [
        tuple(np.frombuffer(mm, np.dtype(dstr), count=rows, offset=off)
              for off, dstr in fields)
        for fields in layout
    ]


def _close_memmap(mm) -> None:
    """Drop a worker's result mapping; tolerate lingering view exports."""
    try:
        mm._mmap.close()  # noqa: SLF001
    except (BufferError, AttributeError):
        pass


def _export_plan(plan: PackedOperands) -> tuple[shared_memory.SharedMemory, dict]:
    """Copy a plan's planes into one shared-memory segment.

    Returns the owning segment plus a picklable descriptor (name, field
    layout, offsets) that :func:`_attach_plan` turns back into a zero-copy
    plan in any process on the machine.
    """
    meta, buffers = plan.to_buffers()
    offsets, total = [], 0
    for arr in buffers:
        total = -(-total // 16) * 16  # 16-byte align each plane
        offsets.append(total)
        total += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
    try:
        for arr, off in zip(buffers, offsets):
            if arr.nbytes:
                dst = np.frombuffer(shm.buf, np.uint8, count=arr.nbytes, offset=off)
                dst[:] = arr.reshape(-1).view(np.uint8)
                del dst
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    sizes = [arr.nbytes for arr in buffers]
    return shm, {"name": shm.name, "meta": meta, "offsets": offsets, "sizes": sizes}


def _attach_plan(desc: dict, own_tracker: bool) -> tuple[shared_memory.SharedMemory, PackedOperands]:
    """Worker-side inverse of :func:`_export_plan` (zero-copy views).

    Attaching registers the segment with the resource tracker (a CPython
    3.11 wart). Fork workers share the parent's tracker, where the repeat
    registration is a set-level no-op and the parent unregisters once at
    unlink — nothing to undo. A worker with its *own* tracker (spawn) must
    unregister, or its tracker would try to unlink the parent's segment at
    shutdown.
    """
    shm = shared_memory.SharedMemory(name=desc["name"])
    if own_tracker:
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
        except Exception:
            pass
    bufs = [shm.buf[off:off + size] if size else b""
            for off, size in zip(desc["offsets"], desc["sizes"])]
    return shm, PackedOperands.from_buffers(desc["meta"], bufs)


def _release_plan(shm: shared_memory.SharedMemory) -> None:
    """Close a worker's attachment; tolerate lingering buffer exports.

    All views into the segment must be dropped before close; if a stray
    reference survives (BufferError), the map is left for process exit to
    reclaim rather than crashing the task.
    """
    try:
        shm.close()
    except BufferError:
        pass


def _kernel_task(desc_a, desc_b, shape, lo, hi, points, chunk_rows, own_tracker,
                 result, crash=False, trace=None):
    """One span of fp_ip_points against shared-memory operand plans.

    ``result`` describes the parent's preallocated result block; the span's
    outputs are written straight into its ``[lo, hi)`` rows and nothing is
    returned — the kernel output never crosses the process boundary as a
    pickle.

    ``crash`` is the chaos layer's ``worker-crash`` directive, consumed by
    the parent at dispatch time (fork workers don't share the armed
    engine): the worker dies before touching the result block, the pool
    breaks, and the parent re-dispatches the span — spans write disjoint
    rows, so a re-run is idempotent.

    ``trace`` is the parent's wire context (``None`` when tracing is
    disarmed — the fast path is byte-for-byte the old behavior, returning
    ``None``).  When set, the worker arms a task-local tracer adopted under
    the parent span and ships its finished span dicts back as
    ``{"trace_spans": [...]}`` — telemetry, not kernel output, so the
    zero-copy result invariant (``results_pickled == 0``) still holds.  A
    crashed worker never returns, so a re-dispatched span's trace is
    recorded exactly once.
    """
    if crash:
        os._exit(17)  # noqa: SLF001 - simulate a hard worker death
    if trace is not None:
        with worker_trace(trace) as collected:
            with trace_span("executor.chunk", backend="process",
                            lo=lo, hi=hi):
                _kernel_task_body(desc_a, desc_b, shape, lo, hi, points,
                                  chunk_rows, own_tracker, result)
        return {"trace_spans": collected}
    _kernel_task_body(desc_a, desc_b, shape, lo, hi, points, chunk_rows,
                      own_tracker, result)
    return None


def _kernel_task_body(desc_a, desc_b, shape, lo, hi, points, chunk_rows,
                      own_tracker, result):
    shape = tuple(shape)
    shm_a, pa = _attach_plan(desc_a, own_tracker)
    shm_b, pb = _attach_plan(desc_b, own_tracker)
    mm = None
    try:
        slab_a = _slab(pa, shape, lo, hi)
        slab_b = _slab(pb, shape, lo, hi)
        inner = int(np.prod(shape[1:-1], dtype=np.int64))
        mm = np.memmap(result["path"], dtype=np.uint8, mode="r+",
                       shape=(result["total"],))
        slots = [
            tuple(a[lo * inner:hi * inner] for a in slot)
            for slot in _result_views(mm, result["layout"], result["rows"])
        ]
        fp_ip_points(slab_a, slab_b, points, chunk_rows=chunk_rows, out=slots)
        return None
    finally:
        del pa, pb
        try:
            del slab_a, slab_b
        except NameError:
            pass
        try:
            del slots
        except NameError:
            pass
        _release_plan(shm_a)
        _release_plan(shm_b)
        if mm is not None:
            _close_memmap(mm)


class ProcessExecutor:
    """Process-pool fan-out with shared-memory operand planes.

    Tasks carry only a segment descriptor and a span, so the decoded plans
    cross the process boundary exactly once per call regardless of task
    count. The fork context is used where available (Linux), which also
    carries registered custom formats/designs into the workers.
    """

    name = "process"

    # Worker deaths tolerated per run_points/map_tasks call before giving
    # up — a systematically crashing task (OOM kill loop) must not spin.
    MAX_POOL_REBUILDS = 2

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))
        self.tasks_dispatched = 0
        self.shm_bytes = 0
        self.shm_bytes_tx = 0
        self.shm_bytes_rx = 0
        # kernel-output tuples returned through pickling; the zero-copy
        # result path keeps this at 0 (pinned by the session stats test)
        self.results_pickled = 0
        # worker-death recovery counters (see _drain)
        self.worker_restarts = 0
        self.chunks_redispatched = 0
        self.last_segments: list[str] = []
        self.last_result_files: list[str] = []
        self._start_method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                              else multiprocessing.get_start_method(allow_none=False))
        self._pool: ProcessPoolExecutor | None = None
        self._live: dict[str, shared_memory.SharedMemory] = {}
        self._live_results: list[str] = []
        self._scope_depth = 0
        # id(plan) -> (plan, descriptor); the plan reference pins the id so
        # it cannot be recycled onto a different object mid-scope
        self._scope_exports: dict[int, tuple[PackedOperands, dict]] = {}
        self._lock = threading.Lock()

    @property
    def live_segments(self) -> list[str]:
        """Names of shared-memory segments currently owned (not yet unlinked)."""
        with self._lock:
            return sorted(self._live)

    @property
    def live_result_files(self) -> list[str]:
        """Result-block paths currently on disk (not yet unlinked)."""
        with self._lock:
            return sorted(self._live_results)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                ctx = multiprocessing.get_context(self._start_method)
                self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                                 mp_context=ctx)
            return self._pool

    def _rebuild_pool(self, broken: ProcessPoolExecutor) -> ProcessPoolExecutor:
        """Replace a broken pool (a worker died) with a fresh one.

        Concurrent callers may race here after the same break; the lock
        makes the swap idempotent — whoever loses just gets the new pool.
        """
        with self._lock:
            if self._pool is broken:
                self._pool = None
        broken.shutdown(wait=False)
        return self._ensure_pool()

    def _drain(self, pool: ProcessPoolExecutor, jobs, resubmit) -> dict:
        """Await ``(index, item, future)`` jobs; returns ``{index: result}``.

        A dead worker breaks the whole pool (every pending future raises
        ``BrokenExecutor``): detect it, rebuild the pool, and re-dispatch
        exactly the jobs that didn't complete. Kernel spans write disjoint
        rows of the shared result block and map payloads are pure, so
        re-running them is idempotent and the output stays bit-identical.
        """
        out: dict = {}
        rebuilds = 0
        while jobs:
            broken = []
            for index, item, fut in jobs:
                try:
                    out[index] = fut.result()
                except BrokenExecutor:
                    broken.append((index, item))
            if not broken:
                break
            rebuilds += 1
            if rebuilds > self.MAX_POOL_REBUILDS:
                raise RuntimeError(
                    f"process pool died {rebuilds} times running "
                    f"{len(broken)} task(s); giving up (systematic crash?)")
            pool = self._rebuild_pool(pool)
            with self._lock:
                self.worker_restarts += 1
                self.chunks_redispatched += len(broken)
                self.tasks_dispatched += len(broken)
            jobs = [(index, item, resubmit(pool, item)) for index, item in broken]
        return out

    @contextmanager
    def plan_scope(self):
        """Pin plan exports across calls: within the scope, re-submitting the
        same :class:`PackedOperands` object reuses its shared-memory segment
        instead of re-exporting it, and segments are unlinked when the
        outermost scope exits. This is how per-channel loops (the emulated
        convolution) ship one activation plan across many kernel calls."""
        with self._lock:
            self._scope_depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._scope_depth -= 1
                if self._scope_depth == 0:
                    names = [d["name"] for _, d in self._scope_exports.values()]
                    self._scope_exports = {}
                else:
                    names = []
            self._unlink(names)

    def _register(self, shm: shared_memory.SharedMemory) -> None:
        self._live[shm.name] = shm
        self.shm_bytes += shm.size
        self.shm_bytes_tx += shm.size
        self.last_segments.append(shm.name)

    def _export(self, plan: PackedOperands) -> tuple[dict, bool]:
        """``(descriptor, deferred)``: deferred exports outlive the call
        (a surrounding plan_scope owns their unlink).

        The scoped branch checks, exports, and registers under one lock
        hold, so concurrent callers sharing a plan inside a scope never
        race into a double export (the copy is serialized — scopes exist
        for single-threaded per-channel loops, where this never contends).
        """
        with self._lock:
            if self._scope_depth > 0:
                cached = self._scope_exports.get(id(plan))
                if cached is not None and cached[0] is plan:
                    return cached[1], True
                shm, desc = _export_plan(plan)
                self._register(shm)
                self._scope_exports[id(plan)] = (plan, desc)
                return desc, True
        shm, desc = _export_plan(plan)
        with self._lock:
            self._register(shm)
        return desc, False

    def _unlink(self, names) -> None:
        for name in names:
            with self._lock:
                shm = self._live.pop(name, None)
            if shm is not None:
                _release_plan(shm)
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass

    def _unlink_result(self, path: str) -> None:
        """Unlink a result block; the parent's mapped views stay valid.

        ``OSError`` (not just ``FileNotFoundError``): on Windows the
        fallback temp-dir block can't be unlinked while still mapped by
        the parent or a worker — leaving it for temp cleanup beats
        raising out of ``run_points``' finally block.
        """
        with self._lock:
            if path in self._live_results:
                self._live_results.remove(path)
        try:
            os.unlink(path)
        except OSError:
            pass

    def run_points(self, pa, pb, points, shape, chunk_rows=None):
        dim0 = shape[0]
        inner = int(np.prod(shape[1:-1], dtype=np.int64))
        spans = chunk_spans(dim0, inner, shape[-1], self.workers, chunk_rows)
        if len(spans) <= 1:
            return fp_ip_points(pa, pb, points, chunk_rows=chunk_rows)
        pool = self._ensure_pool()
        with self._lock:
            if self._scope_depth == 0:
                self.last_segments = []
            self.last_result_files = []
        own_tracker = self._start_method != "fork"
        rows = dim0 * inner
        lead = tuple(shape[:-1])
        layout, total = _result_layout(points, rows)
        exported: list[tuple[dict, bool]] = []
        path = None
        try:  # exports inside the try so a failed second export still cleans up
            desc_a, defer_a = self._export(pa)
            exported.append((desc_a, defer_a))
            if pb is pa:  # self inner products share one segment
                desc_b, defer_b = desc_a, defer_a
            else:
                desc_b, defer_b = self._export(pb)
                exported.append((desc_b, defer_b))
            path = _create_result_file(total)
            with self._lock:
                self._live_results.append(path)
                self.last_result_files.append(path)
                self.shm_bytes += total
                self.shm_bytes_rx += total
            mm = np.memmap(path, dtype=np.uint8, mode="r+", shape=(total,))
            result_desc = {"path": path, "total": total,
                           "layout": layout, "rows": rows}
            wire = trace_wire()  # None when tracing is disarmed

            def submit(to_pool, span, crash=False):
                return to_pool.submit(_kernel_task, desc_a, desc_b,
                                      tuple(shape), span[0], span[1], points,
                                      chunk_rows, own_tracker, result_desc,
                                      crash, wire)

            jobs = []
            for index, span in enumerate(spans):
                # the chaos directive is consumed at dispatch time only —
                # a re-dispatched span must not crash again
                directive = chaos_hook("executor.chunk", lo=span[0], hi=span[1])
                crash = bool(directive and directive.get("action") == "crash")
                jobs.append((index, span, submit(pool, span, crash)))
            with self._lock:
                self.tasks_dispatched += len(jobs)
            returned = self._drain(pool, jobs, submit)
            for value in returned.values():
                if isinstance(value, dict) and "trace_spans" in value:
                    # worker telemetry, merged into the armed tracer; not
                    # kernel output, so results_pickled stays 0
                    trace_ingest(value["trace_spans"])
                elif value is not None:  # pragma: no cover - defensive
                    self.results_pickled += 1
            slots = _result_views(mm, layout, rows)
        finally:
            self._unlink([desc["name"] for desc, defer in exported if not defer])
            if path is not None:
                self._unlink_result(path)
        return [
            FPIPBatchResult(*(a.reshape(lead) for a in slot))
            for slot in slots
        ]

    def map(self, fn, items) -> list:
        raise TypeError(
            "ProcessExecutor cannot run arbitrary closures; use map_tasks "
            "with a module-level function and picklable payloads"
        )

    def map_tasks(self, fn, payloads) -> list:
        payloads = list(payloads)
        if len(payloads) <= 1:
            return [fn(p) for p in payloads]
        pool = self._ensure_pool()
        jobs = [(i, p, pool.submit(fn, p)) for i, p in enumerate(payloads)]
        with self._lock:
            self.tasks_dispatched += len(jobs)
        returned = self._drain(pool, jobs, lambda to_pool, p: to_pool.submit(fn, p))
        return [returned[i] for i in range(len(payloads))]

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
            live, self._live = dict(self._live), {}
            live_results, self._live_results = list(self._live_results), []
            self._scope_exports = {}
        for shm in live.values():
            _release_plan(shm)
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        for path in live_results:
            try:
                os.unlink(path)
            except OSError:  # e.g. still memory-mapped on Windows
                pass
        if pool is not None:
            pool.shutdown(wait=True)


_BACKEND_CLASSES = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def make_executor(backend=None, workers: int | None = None):
    """Build an executor from a spec/name/dict plus optional worker override."""
    spec = resolve_executor_spec(backend, workers)
    return _BACKEND_CLASSES[spec.backend](spec.resolved_workers)

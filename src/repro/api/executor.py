"""Pluggable execution backends: one interface, serial / thread / process.

Every backend runs :func:`repro.ipu.engine.fp_ip_points` over a batch split
into spans (:meth:`run_points`), maps a function over items (:meth:`map`),
and counts its fan-out straight into the :class:`ExecutorStats` it was built
with — its session's stats object, so session stats are live and need no
sync step:

``SerialExecutor``
    runs everything inline; the reference semantics.

``ThreadExecutor``
    broadcast-slabs the operand plans and runs :func:`fp_ip_points` per span
    on a thread pool. NumPy releases the GIL inside the kernel's hot loops,
    so this scales on multi-core hosts without any serialization cost.

``ProcessExecutor``
    a ``ProcessPoolExecutor`` (fork context where available) with one
    transport: plain files in ``/dev/shm`` (tmpfs) mapped with
    ``np.memmap``. Each call exports every operand plan once through the
    :meth:`~repro.ipu.engine.PackedOperands.to_buffers` codec and
    preallocates one result block laid out per :func:`_result_layout`.
    Workers map both zero-copy (:meth:`from_buffers`), write their span's
    exact register values straight into the block through
    ``fp_ip_points(out=...)`` and return ``None`` — neither plans nor kernel
    outputs are pickled (``results_pickled`` stays 0). ``shm_bytes`` splits
    into ``shm_bytes_tx`` (plans out) and ``shm_bytes_rx`` (result blocks
    back). A file needs no resource-tracker bookkeeping in either process,
    and the parent unlinks it as soon as the call completes while its mapped
    views stay valid; ``live_files`` and the cleanup tests pin that no file
    outlives :meth:`close`.

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
from dataclasses import asdict, dataclass, fields

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

__all__ = ["ExecutorSpec", "ExecutorStats", "BACKENDS", "make_executor",
           "SerialExecutor", "ThreadExecutor", "ProcessExecutor"]

BACKENDS = ("serial", "thread", "process")


@dataclass
class ExecutorStats:
    """The fan-out counters every backend writes, declared once.

    ``backend``/``workers`` describe the backend; ``tasks_dispatched``
    counts tasks actually handed to a pool; ``shm_bytes`` is the cumulative
    ``/dev/shm`` transport traffic (process backend only), split into
    ``shm_bytes_tx`` (operand plans out) and ``shm_bytes_rx`` (result blocks
    back). ``results_pickled`` counts kernel outputs that crossed the
    process boundary as pickles — the zero-copy result path keeps it at 0.
    ``worker_restarts``/``chunks_redispatched`` count worker-death
    recoveries. Session stats classes extend this one, so benchmark JSON
    and metrics read the counters off the session directly.
    """

    backend: str = "serial"
    workers: int = 1
    tasks_dispatched: int = 0
    shm_bytes: int = 0
    shm_bytes_tx: int = 0
    shm_bytes_rx: int = 0
    results_pickled: int = 0
    worker_restarts: int = 0
    chunks_redispatched: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


# the monotonic ExecutorStats fields (metrics counters; the rest describe)
EXECUTOR_COUNTERS = frozenset(
    f.name for f in fields(ExecutorStats)) - {"backend", "workers"}


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
    """Inline execution; the reference every other backend must match.

    The pooled backends extend it: they share its constructor (a worker
    count plus the stats object the counters go to) and override what they
    parallelize.
    """

    name = "serial"

    def __init__(self, workers: int, stats: ExecutorStats):
        self.workers = workers
        self.stats = stats
        stats.backend, stats.workers = self.name, workers
        # re-entrant: a scoped process export creates its file under the lock
        self._lock = threading.RLock()

    def run_points(self, pa, pb, points, shape, chunk_rows=None):
        return fp_ip_points(pa, pb, points, chunk_rows=chunk_rows)

    def map(self, fn, items) -> list:
        return [fn(item) for item in items]

    @contextmanager
    def plan_scope(self):
        """No-op here; see :meth:`ProcessExecutor.plan_scope`."""
        yield

    def close(self) -> None:
        pass


class ThreadExecutor(SerialExecutor):
    """Thread-pool fan-out (NumPy kernels release the GIL)."""

    name = "thread"

    def __init__(self, workers: int, stats: ExecutorStats):
        super().__init__(workers, stats)
        self._pool: ThreadPoolExecutor | None = None

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
            self.stats.tasks_dispatched += len(futures)
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
            self.stats.tasks_dispatched += len(futures)
        return [f.result() for f in futures]

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


# -- process backend ----------------------------------------------------------

# Transport files live in /dev/shm (tmpfs): a file + mmap needs no resource
# tracker bookkeeping in either process, and the parent can unlink it the
# moment a call completes while its mapped views stay valid.
_SHM_DIR = "/dev/shm" if os.path.isdir("/dev/shm") else None


def _aligned(sizes) -> tuple[list[int], int]:
    """16-byte-aligned offsets of consecutive fields, plus the file size."""
    offsets, total = [], 0
    for size in sizes:
        total = -(-total // 16) * 16
        offsets.append(total)
        total += size
    return offsets, max(total, 1)


def _create_file(nbytes: int) -> str:
    """Preallocate one transport file; returns its path (parent unlinks it)."""
    fd, path = tempfile.mkstemp(prefix="repro-", dir=_SHM_DIR)
    try:
        os.ftruncate(fd, nbytes)
    finally:
        os.close(fd)
    return path


def _result_layout(points, rows: int) -> tuple[list, int]:
    """Field layout of one result block: per point, five row-length arrays
    (values, rounded, max_exp, alignment_cycles, total_cycles)."""
    dtypes = [d for p in points
              for d in ("<f8", np.dtype(np_float_dtype(p.acc_fmt)).str,
                        "<i8", "<i8", "<i8")]
    offsets, total = _aligned([rows * np.dtype(d).itemsize for d in dtypes])
    flat = list(zip(offsets, dtypes))
    return [flat[i:i + 5] for i in range(0, len(flat), 5)], total


def _result_views(mm, layout, rows: int) -> list[tuple[np.ndarray, ...]]:
    """Per-point 5-tuples of flat row-length views into a mapped block."""
    return [
        tuple(np.frombuffer(mm, np.dtype(dstr), count=rows, offset=off)
              for off, dstr in point_fields)
        for point_fields in layout
    ]


def _attach_plan(desc: dict) -> PackedOperands:
    """Worker-side inverse of :meth:`ProcessExecutor._export` (zero-copy
    views; the mapping lives as long as the plan's arrays)."""
    mm = np.memmap(desc["path"], np.uint8, "r", shape=(desc["total"],))
    return PackedOperands.from_buffers(desc["meta"], [
        mm[off:off + size] for off, size in zip(desc["offsets"], desc["sizes"])])


def _kernel_task(desc_a, desc_b, shape, lo, hi, points, chunk_rows, result,
                 crash=False, trace=None):
    """One span of fp_ip_points against transport-file operand plans.

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
    disarmed — the fast path returns ``None``). When set, the worker arms a
    task-local tracer adopted under the parent span and ships its finished
    span dicts back as ``{"trace_spans": [...]}`` — telemetry, not kernel
    output, so the zero-copy result invariant (``results_pickled == 0``)
    still holds. A crashed worker never returns, so a re-dispatched span's
    trace is recorded exactly once.
    """
    if crash:
        os._exit(17)  # noqa: SLF001 - simulate a hard worker death
    if trace is None:
        _run_span(desc_a, desc_b, shape, lo, hi, points, chunk_rows, result)
        return None
    with worker_trace(trace) as collected:
        with trace_span("executor.chunk", backend="process", lo=lo, hi=hi):
            _run_span(desc_a, desc_b, shape, lo, hi, points, chunk_rows, result)
    return {"trace_spans": collected}


def _run_span(desc_a, desc_b, shape, lo, hi, points, chunk_rows, result):
    # every mapping is released with the locals when this returns
    inner = int(np.prod(shape[1:-1], dtype=np.int64))
    mm = np.memmap(result["path"], np.uint8, "r+", shape=(result["total"],))
    slots = [
        tuple(a[lo * inner:hi * inner] for a in slot)
        for slot in _result_views(mm, result["layout"], result["rows"])
    ]
    fp_ip_points(_slab(_attach_plan(desc_a), shape, lo, hi),
                 _slab(_attach_plan(desc_b), shape, lo, hi), points,
                 chunk_rows=chunk_rows, out=slots)


class ProcessExecutor(SerialExecutor):
    """Process-pool fan-out over ``/dev/shm`` transport files.

    Tasks carry only file descriptors and a span, so the decoded plans
    cross the process boundary exactly once per call regardless of task
    count. The fork context is used where available (Linux), which also
    carries registered custom formats/designs into the workers.
    """

    name = "process"

    # Worker deaths tolerated per run_points/map call before giving up — a
    # systematically crashing task (OOM kill loop) must not spin.
    MAX_POOL_REBUILDS = 2

    def __init__(self, workers: int, stats: ExecutorStats):
        super().__init__(workers, stats)
        self.last_files: list[str] = []
        self._start_method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                              else multiprocessing.get_start_method(allow_none=False))
        self._pool: ProcessPoolExecutor | None = None
        self._live: list[str] = []
        self._scope_depth = 0
        # id(plan) -> (plan, descriptor); the plan reference pins the id so
        # it cannot be recycled onto a different object mid-scope
        self._scope_exports: dict[int, tuple[PackedOperands, dict]] = {}

    @property
    def live_files(self) -> list[str]:
        """Transport files currently on disk (not yet unlinked)."""
        with self._lock:
            return sorted(self._live)

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
                self.stats.worker_restarts += 1
                self.stats.chunks_redispatched += len(broken)
                self.stats.tasks_dispatched += len(broken)
            jobs = [(index, item, resubmit(pool, item)) for index, item in broken]
        return out

    @contextmanager
    def plan_scope(self):
        """Pin plan exports across calls: within the scope, re-submitting the
        same :class:`PackedOperands` object reuses its transport file
        instead of re-exporting it, and the files are unlinked when the
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
                    paths = [d["path"] for _, d in self._scope_exports.values()]
                    self._scope_exports = {}
                else:
                    paths = []
            self._unlink(paths)

    def _create(self, nbytes: int, rx: bool) -> str:
        """A new transport file, owned (live) until :meth:`_unlink`."""
        path = _create_file(nbytes)
        with self._lock:
            self._live.append(path)
            self.last_files.append(path)
            self.stats.shm_bytes += nbytes
            if rx:
                self.stats.shm_bytes_rx += nbytes
            else:
                self.stats.shm_bytes_tx += nbytes
        return path

    def _export(self, plan: PackedOperands) -> tuple[dict, bool]:
        """``(descriptor, deferred)`` of a plan copied into a transport file;
        deferred exports outlive the call (a surrounding plan_scope owns
        their unlink). :func:`_attach_plan` turns the picklable descriptor
        back into a zero-copy plan in a worker.

        The scoped branch checks and exports under one lock hold, so
        concurrent callers sharing a plan inside a scope never race into a
        double export (the copy is serialized — scopes exist for
        single-threaded per-channel loops, where this never contends).
        """
        with self._lock:
            if self._scope_depth > 0:
                cached = self._scope_exports.get(id(plan))
                if cached is None or cached[0] is not plan:
                    cached = self._scope_exports[id(plan)] = (plan, self._write_plan(plan))
                return cached[1], True
        return self._write_plan(plan), False

    def _write_plan(self, plan: PackedOperands) -> dict:
        meta, buffers = plan.to_buffers()
        sizes = [arr.nbytes for arr in buffers]
        offsets, total = _aligned(sizes)
        path = self._create(total, rx=False)
        try:
            mm = np.memmap(path, np.uint8, "r+", shape=(total,))
            for arr, off in zip(buffers, offsets):
                mm[off:off + arr.nbytes] = arr.reshape(-1).view(np.uint8)
        except BaseException:
            self._unlink([path])
            raise
        return {"path": path, "total": total, "meta": meta,
                "offsets": offsets, "sizes": sizes}

    def _unlink(self, paths) -> None:
        """Unlink owned transport files; mapped views stay valid.

        ``OSError`` (not just ``FileNotFoundError``): on Windows the
        fallback temp-dir file can't be unlinked while still mapped by the
        parent or a worker — leaving it for temp cleanup beats raising out
        of ``run_points``' finally block.
        """
        with self._lock:
            paths = [p for p in paths if p in self._live]
            for path in paths:
                self._live.remove(path)
        for path in paths:
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
                self.last_files = []
        rows = dim0 * inner
        layout, total = _result_layout(points, rows)
        owned: list[str] = []  # this call's files (scoped exports excluded)
        try:  # exports inside the try so a failed second export still cleans up
            desc_a, deferred = self._export(pa)
            owned += [] if deferred else [desc_a["path"]]
            desc_b = desc_a  # self inner products share one file
            if pb is not pa:
                desc_b, deferred = self._export(pb)
                owned += [] if deferred else [desc_b["path"]]
            path = self._create(total, rx=True)
            owned.append(path)
            mm = np.memmap(path, np.uint8, "r+", shape=(total,))
            result = {"path": path, "total": total, "layout": layout, "rows": rows}
            wire = trace_wire()  # None when tracing is disarmed

            def submit(to_pool, span, crash=False):
                return to_pool.submit(_kernel_task, desc_a, desc_b,
                                      tuple(shape), span[0], span[1], points,
                                      chunk_rows, result, crash, wire)

            jobs = []
            for index, span in enumerate(spans):
                # the chaos directive is consumed at dispatch time only —
                # a re-dispatched span must not crash again
                directive = chaos_hook("executor.chunk", lo=span[0], hi=span[1])
                crash = bool(directive and directive.get("action") == "crash")
                jobs.append((index, span, submit(pool, span, crash)))
            with self._lock:
                self.stats.tasks_dispatched += len(jobs)
            for value in self._drain(pool, jobs, submit).values():
                if isinstance(value, dict) and "trace_spans" in value:
                    # worker telemetry, merged into the armed tracer; not
                    # kernel output, so results_pickled stays 0
                    trace_ingest(value["trace_spans"])
                elif value is not None:  # pragma: no cover - defensive
                    self.stats.results_pickled += 1
            slots = _result_views(mm, layout, rows)
        finally:
            self._unlink(owned)
        lead = tuple(shape[:-1])
        return [
            FPIPBatchResult(*(a.reshape(lead) for a in slot))
            for slot in slots
        ]

    def map(self, fn, items) -> list:
        """``fn`` must be a module-level function and ``items`` picklable."""
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        jobs = [(i, item, pool.submit(fn, item)) for i, item in enumerate(items)]
        with self._lock:
            self.stats.tasks_dispatched += len(jobs)
        returned = self._drain(pool, jobs, lambda to_pool, item: to_pool.submit(fn, item))
        return [returned[i] for i in range(len(items))]

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
            self._scope_exports = {}
            live = list(self._live)
        self._unlink(live)
        if pool is not None:
            pool.shutdown(wait=True)


_BACKEND_CLASSES = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def make_executor(backend=None, workers: int | None = None,
                  stats: ExecutorStats | None = None):
    """Build an executor from a spec/name/dict plus optional worker override;
    it counts into ``stats`` (a fresh :class:`ExecutorStats` by default)."""
    spec = resolve_executor_spec(backend, workers)
    workers = 1 if spec.backend == "serial" else spec.resolved_workers
    return _BACKEND_CLASSES[spec.backend](
        workers, ExecutorStats() if stats is None else stats)

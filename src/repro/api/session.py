"""Emulation sessions: one front door for every emulation consumer.

An :class:`EmulationSession` owns the state that ad-hoc entry points used to
re-create per call:

- a **weight-plan cache** for the convolution path, keyed by array
  identity (:meth:`EmulationSession.weight_plan`): the paper's convolution
  unit keeps weights stationary and streams activations, so a layer's
  weights are decoded once and reused by every batch and precision, while
  streamed operands are packed per call;
- a pluggable **execution backend** (:mod:`repro.api.executor`: ``serial`` /
  ``thread``) that splits large batches chunk-granularly — rows are
  independent, so every backend is bit-exact with serial execution
  (verified by the test suite).

High-level methods cover the repo's workloads: :meth:`inner_product` /
:meth:`inner_products` for kernel points, :meth:`fp_ip_points_iter` for
streaming million-sample batches at bounded memory, :meth:`conv2d` /
:meth:`forward` for emulated inference, :meth:`int_dot` for INT mode, and
:meth:`sweep` for declarative :class:`repro.api.spec.RunSpec` grids (the
Figure-3 protocol, streamed chunk by chunk).
"""

from __future__ import annotations

import copy
import threading
import time
from concurrent.futures import wait
from dataclasses import dataclass

import numpy as np

from repro.analysis.error import ErrorStats, error_stats
from repro.chaos.errors import DeadlineExceeded
from repro.analysis.sweeps import PrecisionSweep, SweepPoint, _operands_for
from repro.fp.formats import FPFormat, np_float_dtype
from repro.fp.registry import parse_accumulator, parse_format
from repro.ipu.engine import (
    KernelPoint,
    PackedOperands,
    default_chunk_rows,
    fp_ip_points,
    pack_operands,
)
from repro.ipu.reference import cpu_fp32_dot_batch
from repro.obs.metrics import REGISTRY, counter
from repro.obs.trace import current_tracer, trace_span
from repro.store import ResultStore
from repro.store.fingerprint import fingerprint as _result_key
from repro.utils.rng import as_generator

from repro.api.executor import ExecutorStats, _slab, make_executor
from repro.api.spec import PrecisionPoint, RunSpec

__all__ = ["EmulationSession", "SessionStats"]

# Below this many result rows the pool split costs more than it saves.
MIN_PARALLEL_ROWS = 4096


@dataclass
class SessionStats(ExecutorStats):
    """Weight-plan counters plus the executor's (observability for sizing
    decisions; the executor writes its counters here directly).

    ``plan_hits``/``plan_misses`` count conv weight plans reused from the
    session's cache and decoded afresh (:meth:`EmulationSession.weight_plan`);
    ``kernel_rows`` counts emulated rows and ``parallel_batches`` the kernel
    calls that ran on the backend's pool (split batches and sweep chunk
    tasks). The inherited :class:`ExecutorStats` fields prove the pool
    engaged (benchmark JSON asserts on them). Pool threads and callers
    sharing the session count concurrently: the kernel counters are
    written under the executor's lock, the plan counters under the
    weight-plan lock.
    """

    plan_hits: int = counter()
    plan_misses: int = counter()
    kernel_rows: int = counter()
    parallel_batches: int = counter()


def sweep_points_to_dicts(points) -> list[dict]:
    """JSON-safe encoding of :class:`SweepPoint` lists (store/service wire).

    ``stats`` holds scalars only, so a shallow copy of its fields gives
    ``dataclasses.asdict``'s keys, order and values without its deep copy
    (which cost more than a warm sweep's store reads).
    """
    return [
        {"source": p.source, "acc_fmt": p.acc_fmt, "precision": p.precision,
         "stats": dict(vars(p.stats))}
        for p in points
    ]


def sweep_points_from_dicts(dicts) -> list[SweepPoint]:
    """Inverse of :func:`sweep_points_to_dicts` (bit-exact: JSON floats
    round-trip float64 exactly)."""
    return [
        SweepPoint(d["source"], d["acc_fmt"], d["precision"],
                   ErrorStats(**d["stats"]))
        for d in dicts
    ]


def _dedup_kernels(points) -> tuple[list[KernelPoint], dict]:
    """Unique kernel configurations (first-appearance order) + key index.

    Points that differ only in accumulator share one kernel execution; the
    caller applies each point's write-back separately.
    """
    kernels: list[KernelPoint] = []
    index: dict[tuple, int] = {}
    for p in points:
        if p.kernel_key() not in index:
            index[p.kernel_key()] = len(kernels)
            kernels.append(p.kernel_point())
    return kernels, index


def _kernel_paths(points: list[KernelPoint], n: int, results) -> dict:
    """Which engine fast path each kernel point took, as ``engine.kernels``
    span attributes: its work dtype, and for an MC point the largest
    serve-cycle count of any row (``None`` for single-cycle points)."""
    resolved = [p.resolve() for p in points]
    return {
        "work_dtypes": [np.dtype(r.work_dtype(n)).name for r in resolved],
        "max_serve_cycles": [
            int(res.alignment_cycles.max(initial=1)) if r.multi_cycle else None
            for r, res in zip(resolved, results)],
    }


class EmulationSession:
    """Shared-state emulation façade (see module docstring).

    Parameters
    ----------
    workers:
        Worker count for batch-parallel kernel execution; ``None`` or ``1``
        runs serially (unless ``backend`` says otherwise). Results are
        bit-identical either way.
    chunk_rows:
        The one chunk-sizing knob: result rows per engine work chunk, also
        the default granularity of :meth:`fp_ip_points_iter` and of the
        executor's task splitting. ``None`` auto-sizes from
        :data:`repro.ipu.engine.DEFAULT_CHUNK_ELEMENTS`.
    backend:
        Execution backend: ``"serial"`` / ``"thread"``, an
        :class:`repro.api.executor.ExecutorSpec`, or a spec dict. ``None``
        keeps the historical convention — threads when ``workers > 1``,
        serial otherwise.
    store:
        A :class:`repro.store.ResultStore` (or a directory path) persisting
        :meth:`sweep` results across processes: completed per-source results
        and per-chunk kernel values are written as the sweep streams, so a
        killed sweep resumes computing only the missing chunks and a warm
        replay is near-free. Stored payloads are bit-identical to a fresh
        computation (float64 round-trips exactly through both codecs);
        ``None`` disables persistence.
    """

    def __init__(
        self,
        workers: int | None = None,
        chunk_rows: int | None = None,
        backend=None,
        store=None,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store = ResultStore.coerce(store)
        self.stats = SessionStats()
        self.executor = make_executor(backend, workers, self.stats)
        self.workers = self.executor.workers
        self.chunk_rows = chunk_rows
        self._weight_plans: dict = {}
        self._weight_lock = threading.Lock()  # callers may share one session
        self._closed = False
        REGISTRY.register_object(
            self, prefix="repro_session",
            labels={"instance": REGISTRY.next_instance("emulation")})

    def snapshot(self) -> SessionStats:
        """A copy of :attr:`stats` (what ``/v1/metrics`` scrapes)."""
        with self.executor.lock:
            return copy.deepcopy(self.stats)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the execution backend down and drop the cached weight plans."""
        self.executor.close()
        self._weight_plans.clear()
        self._closed = True

    def __enter__(self) -> "EmulationSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- operand plans -----------------------------------------------------

    def pack(self, values, fmt: str | FPFormat = "fp16") -> PackedOperands:
        """Operand plan for ``values`` in ``fmt``, decoded on every call.

        Passing an existing :class:`PackedOperands` returns it unchanged
        (after checking the format matches), so call sites can accept either
        raw arrays or pre-packed plans.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        fmt = parse_format(fmt)
        if isinstance(values, PackedOperands):
            if values.fmt.name != fmt.name:
                raise ValueError(
                    f"plan is {values.fmt.name}, requested {fmt.name}"
                )
            return values
        return pack_operands(np.asarray(values), fmt)

    def weight_plan(self, weight: np.ndarray, n_ipu: int) -> PackedOperands:
        """Conv weight plan (:func:`repro.analysis.accuracy.weight_plan`),
        decoded once per weight array and reused for the session's lifetime.

        Keyed by array identity; the cache keeps a reference to the array,
        pinning its id. Only valid while the weights are not mutated
        (evaluation-time use).
        """
        from repro.analysis.accuracy import weight_plan

        key = (id(weight), n_ipu)
        with self._weight_lock:
            cached = self._weight_plans.get(key)
            if cached is None:
                self.stats.plan_misses += 1
                cached = self._weight_plans[key] = (weight_plan(weight, n_ipu), weight)
            else:
                self.stats.plan_hits += 1
        return cached[0]

    # -- kernels -----------------------------------------------------------

    @staticmethod
    def _as_points(points) -> list[PrecisionPoint]:
        out = []
        for p in points:
            if isinstance(p, PrecisionPoint):
                out.append(p)
            elif isinstance(p, int):
                out.append(PrecisionPoint(p))
            else:
                raise TypeError(f"expected PrecisionPoint or int, got {type(p).__name__}")
        return out

    def inner_product(self, a, b, point, fmt: str | FPFormat = "fp16"):
        """Emulate one configuration over a batch; returns FPIPBatchResult.

        ``point`` is a :class:`PrecisionPoint` or a bare adder width;
        ``a``/``b`` are float arrays ``(..., n)`` or packed plans.
        """
        return self.inner_products(a, b, [point], fmt)[0]

    def inner_products(self, a, b, points, fmt: str | FPFormat = "fp16"):
        """Emulate many configurations off one shared operand plan pair.

        Points that differ only in accumulator share one kernel execution;
        the per-point write-back rounding is re-applied from the exact
        register values (bit-identical to a dedicated kernel run).
        """
        pts = self._as_points(points)
        pa, pb = self.pack(a, fmt), self.pack(b, fmt)
        kernels, index = _dedup_kernels(pts)
        results = self._run_points(pa, pb, kernels)
        return self._apply_accumulators(pts, index, results)

    @staticmethod
    def _apply_accumulators(pts, index, results):
        """Per-point write-back off shared kernel results (see inner_products)."""
        out = []
        for p in pts:
            base = results[index[p.kernel_key()]]
            acc = p.acc
            if acc.kind != "float":
                # exact/int write-back keeps the register bits (float64)
                rounded = base.values
            else:
                dtype = np_float_dtype(acc.fmt)
                if base.rounded.dtype == dtype:
                    out.append(base)
                    continue
                rounded = base.values.astype(dtype)
            out.append(type(base)(
                values=base.values, rounded=rounded,
                max_exp=base.max_exp, alignment_cycles=base.alignment_cycles,
                total_cycles=base.total_cycles,
            ))
        return out

    def int_dot(self, a, b, a_bits: int, b_bits: int, signed: bool = True):
        """Batched INT-mode inner products: ``(results, cycles_per_op)``."""
        from repro.ipu.vectorized import int_dot_batch

        return int_dot_batch(a, b, a_bits, b_bits, signed=signed)

    def run_kernels(self, pa: PackedOperands, pb: PackedOperands,
                    points: list[KernelPoint]):
        """Plan-level kernel entry: raw engine results per KernelPoint.

        The advanced counterpart of :meth:`inner_products` for callers that
        already hold packed plans and engine :class:`KernelPoint`s (the
        emulated-convolution path): no accumulator registry, no write-back —
        just :func:`fp_ip_points` through the execution backend when
        profitable, bit-identical to a direct engine call.
        """
        return self._run_points(pa, pb, points)

    def _run_points(self, pa: PackedOperands, pb: PackedOperands,
                    points: list[KernelPoint], _unused=None):
        """fp_ip_points through the execution backend when profitable."""
        # _unused: perfbench's golden check calls original(session, pa, pb, points, None)
        if self._closed:
            raise RuntimeError("session is closed")
        shape = self._pair_shape(pa, pb)
        rows = int(np.prod(shape[:-1], dtype=np.int64))
        executor = self.executor
        in_task = executor.in_task()
        parallel = in_task or not (executor.workers <= 1 or shape[0] <= 1
                                   or rows < MIN_PARALLEL_ROWS)
        with executor.lock:
            self.stats.kernel_rows += rows * len(points)
            self.stats.parallel_batches += int(parallel)
        attrs = {"backend": executor.name} if parallel else {}
        with trace_span("engine.kernels", rows=rows, kernels=len(points),
                        parallel=parallel, **attrs) as span:
            if in_task:
                # a task on the backend's own pool (a sweep chunk) runs
                # inline: waiting on that pool from one of its threads
                # could deadlock it
                with trace_span("executor.chunk", backend=executor.name, rows=rows):
                    results = fp_ip_points(pa, pb, points, chunk_rows=self.chunk_rows)
            elif parallel:
                results = executor.run_points(pa, pb, points, shape,
                                              chunk_rows=self.chunk_rows)
            else:
                results = fp_ip_points(pa, pb, points, chunk_rows=self.chunk_rows)
            if current_tracer() is not None:
                span.set(**_kernel_paths(points, shape[-1], results))
        return results

    @staticmethod
    def _pair_shape(pa: PackedOperands, pb: PackedOperands) -> tuple[int, ...]:
        """The broadcast pair shape, padded to (batch, n) like the engine."""
        shape = np.broadcast_shapes(pa.shape, pb.shape)
        if len(shape) < 2:
            shape = (1,) * (2 - len(shape)) + shape
        return shape

    # -- streaming ----------------------------------------------------------

    def _stream_kernels(self, pa: PackedOperands, pb: PackedOperands,
                        kernels: list[KernelPoint], chunk_rows: int | None = None):
        """Yield ``(start, stop, results)`` per leading-axis block.

        The raw streaming core: no accumulator write-back, results carry the
        engine's per-kernel output for rows ``[start, stop)`` of the pair's
        leading axis. Peak extra memory is one block's outputs plus the
        engine's work buffers — O(chunk_rows x kernels), independent of the
        total batch size. Each block still runs through the execution
        backend, so a thread pool parallelizes within blocks.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        shape = self._pair_shape(pa, pb)
        for start, stop in self._block_spans(shape, chunk_rows):
            yield start, stop, self._run_points(
                _slab(pa, shape, start, stop), _slab(pb, shape, start, stop),
                kernels)

    def _block_spans(self, shape, chunk_rows: int | None = None,
                     workers: int | None = None) -> list[tuple[int, int]]:
        """Block boundaries over a pair shape's leading axis, ``workers``
        engine chunks per block (default: the backend's worker count, so
        one streamed block gives every pool thread a chunk)."""
        dim0, n = shape[0], shape[-1]
        inner = int(np.prod(shape[1:-1], dtype=np.int64))
        rows_per_block = chunk_rows or self.chunk_rows or default_chunk_rows(n)
        workers = self.executor.workers if workers is None else workers
        step = max(1, (rows_per_block // max(inner, 1)) * max(workers, 1))
        return [(start, min(start + step, dim0)) for start in range(0, dim0, step)]

    def fp_ip_points_iter(self, a, b, points, fmt: str | FPFormat = "fp16",
                          chunk_rows: int | None = None):
        """Streaming :meth:`inner_products`: yield per-chunk results.

        Yields ``(start, stop, [FPIPBatchResult per point])`` for consecutive
        blocks of the broadcast pair's **leading axis**; concatenating the
        chunks reproduces :meth:`inner_products` bit-for-bit (tested). Use
        this for million-sample sweeps: peak extra memory is bounded by
        O(``chunk_rows`` x points) instead of O(batch x points), because no
        per-point output array is ever materialized for the full batch
        (pool backends split within blocks, so their factor is
        O(chunk_rows x workers x points) — still batch-independent).

        ``chunk_rows`` defaults to the session's knob (auto-sized from
        :data:`repro.ipu.engine.DEFAULT_CHUNK_ELEMENTS`); accumulator
        write-back per point matches :meth:`inner_products`.
        """
        pts = self._as_points(points)
        pa, pb = self.pack(a, fmt), self.pack(b, fmt)
        kernels, index = _dedup_kernels(pts)
        for start, stop, results in self._stream_kernels(pa, pb, kernels, chunk_rows):
            yield start, stop, self._apply_accumulators(pts, index, results)

    # -- emulated inference ------------------------------------------------

    def conv2d(self, x, weight, bias=None, stride: int = 1, padding: int = 0,
               precision: int = 16, accumulator: str = "fp32") -> np.ndarray:
        """Convolution through the emulated FP-IP, session-cached weight plans."""
        from repro.analysis.accuracy import emulated_conv2d

        acc = parse_accumulator(accumulator)
        if acc.kind != "float":
            raise ValueError("conv2d supports float accumulators (fp16/fp32)")
        return emulated_conv2d(x, weight, bias, stride, padding, precision,
                               acc_fmt=acc.fmt, session=self)

    def forward(self, model, x, precision: int | None,
                accumulator: str = "fp32") -> np.ndarray:
        """Forward pass with every conv emulated (``precision=None`` = fp32)."""
        from repro.analysis.accuracy import emulated_forward

        acc = parse_accumulator(accumulator)
        if acc.kind != "float":
            raise ValueError("forward supports float accumulators (fp16/fp32)")
        return emulated_forward(model, x, precision, acc_fmt=acc.fmt, session=self)

    # -- declarative sweeps ------------------------------------------------

    def sweep(self, spec: RunSpec, rng=None, store=None,
              deadline_seconds: float | None = None) -> PrecisionSweep:
        """Run a :class:`RunSpec` grid (the Figure-3 protocol), pipelined.

        Per source: sample ``batch * chunks`` operand pairs, compute the
        FP32-CPU reference, pack both operands once, execute every distinct
        kernel configuration off the shared plans **chunk by chunk**, then
        apply each point's accumulator write-back and error statistics.
        Points that differ only in accumulator share one kernel execution.

        The sources form a two-stage pipeline. All of a source's cold chunks
        are handed to the execution backend at once, each as one task, and
        while the pool runs source *s* the calling thread computes the error
        statistics of source *s-1* and samples, references and packs source
        *s+1*. Operands are still drawn from one generator in source order,
        so every byte matches a serial run. A chunk task keeps only the
        exact register values of each kernel, written into per-kernel
        buffers allocated up front: the engine's full five-array output
        never exists for more than one chunk, and at most two sources' buffers
        are alive, so million-sample error sweeps stay memory-bounded. The
        serial backend runs each task as it is handed over, through the same
        loop.

        ``rng`` overrides ``spec.seed`` (for callers that thread one
        generator through several runs); JSON replays leave it ``None``.

        ``store`` (or the session's ``store=``) persists results across
        processes: finished sources are stored whole and each chunk task
        stores its chunk's exact register values as soon as it has computed
        them, both keyed by the spec's stable fingerprint. Stored chunks are
        served before any task is queued. A killed sweep re-run against the
        same store replays only the missing chunks; a warm re-run queues no
        task at all. An explicit ``rng`` disables persistence (generator
        state has no stable fingerprint). Every source's whole-source entry
        is looked up once, before the first source starts. A stored source
        draws its operands only when some source after it is not stored, to
        keep the shared generator's state exact for that source; a fully
        warm sweep draws no operands at all. Results are bit-identical with
        and without a store: float64 values round-trip the codecs exactly.

        ``deadline_seconds`` bounds the *computing* this call may start: each
        chunk task checks the deadline when it starts, not when it is queued
        (and serving a store hit never checks it), so a warm replay always
        succeeds regardless of budget. A sweep that runs out of time raises
        :class:`~repro.chaos.errors.DeadlineExceeded` once its queued tasks
        have drained, with every finished chunk already persisted — a re-run
        resumes from where it stopped.
        """
        with trace_span("session.sweep", spec=spec.name,
                        sources=len(spec.sources), points=len(spec.points)):
            return self._sweep_impl(spec, rng, store, deadline_seconds)

    def _sweep_impl(self, spec: RunSpec, rng, store,
                    deadline_seconds: float | None) -> PrecisionSweep:
        if self._closed:
            raise RuntimeError("session is closed")
        if not spec.points:
            raise ValueError("RunSpec has no precision points")
        run = _SweepRun(self, spec, rng,
                        self.store if store is None else ResultStore.coerce(store),
                        deadline_seconds)
        result = PrecisionSweep()
        jobs: list[_SourceJob] = []  # started, not yet collected; oldest first
        try:
            for src_index, source in enumerate(spec.sources):
                jobs.append(run.start(src_index, source))
                if len(jobs) > 1:
                    result.points.extend(run.finish(jobs[0]))
                    jobs.pop(0)
            while jobs:
                result.points.extend(run.finish(jobs[0]))
                jobs.pop(0)
        except BaseException:
            # no task may outlive the call: drop the queued ones, await the rest
            futures = [f for job in jobs for f in job.futures]
            for future in futures:
                future.cancel()
            wait(futures)
            raise
        return result


class _SourceJob:
    """One source in flight: its reference, per-kernel value buffers and the
    futures of its cold chunks (``points`` is set instead on a store hit)."""

    __slots__ = ("source", "source_fp", "points", "ref", "values", "futures")

    def __init__(self, source: str, source_fp: str | None):
        self.source, self.source_fp = source, source_fp
        self.points = self.ref = self.values = None
        self.futures = []


class _SweepRun:
    """The state of one :meth:`EmulationSession.sweep` call.

    :meth:`start` serves a stored source, or samples, references and packs
    it and queues its cold chunks on the session's executor (a stored source
    is sampled too while a cold one lies ahead); :meth:`finish` awaits them and
    turns the values into error statistics. The sweep starts source *s+1*
    before it finishes source *s*, so the parent's serial work overlaps the
    pool's kernels; operands are still drawn from the one generator in
    source order.
    """

    def __init__(self, session: EmulationSession, spec: RunSpec, rng, store,
                 deadline_seconds: float | None):
        self.session, self.spec = session, spec
        self.cacheable = store is not None and rng is None
        self.store = store if self.cacheable else None
        self.deadline_seconds = deadline_seconds
        self.deadline = (None if deadline_seconds is None
                         else time.monotonic() + deadline_seconds)
        self.fmt = parse_format(spec.operand_format)
        self.dtype = np_float_dtype(self.fmt)
        self.rng = as_generator(spec.seed if rng is None else rng)
        self.spec_fp = spec.fingerprint() if self.cacheable else None
        self.kernels, self.index = _dedup_kernels(spec.points)
        # the stored chunk payloads are exact register values, which are
        # accumulator-independent (write-back happens after the store), so
        # the chunk key must not mention acc_fmt — else two accumulator-only
        # spec variants would store byte-identical payloads twice
        self.kernel_descs = [[k.adder_width, k.software_precision, k.multi_cycle]
                             for k in self.kernels]
        # probe every source's whole-source entry once, up front: only
        # sources at or before the last cold one need operands
        self.source_fps = [None] * len(spec.sources)
        self.hits = [None] * len(spec.sources)
        if self.cacheable:
            for i, source in enumerate(spec.sources):
                self.source_fps[i] = _result_key({"sweep_source": self.spec_fp,
                                                  "index": i, "source": source})
                self.hits[i] = store.get_json("sweep-source", self.source_fps[i])
        self.last_cold = max((i for i, hit in enumerate(self.hits) if hit is None),
                             default=-1)
        # chunk entries are keyed below the *kernel* grid (accumulator-only
        # point variants share them), so drop the fields they don't depend on
        if self.cacheable and self.last_cold >= 0:
            self.operand_dict = spec.to_dict()
            for field in ("name", "executor", "points"):
                self.operand_dict.pop(field, None)

    def start(self, src_index: int, source: str) -> _SourceJob:
        spec, store, session = self.spec, self.store, self.session
        hit = self.hits[src_index]
        if src_index <= self.last_cold:
            # a cold source lies at or after this one: sample even a stored
            # source, because the sources share one generator and skipping
            # would shift the cold source's operands. Past the last cold
            # source the draws would feed nothing: the generator is the
            # sweep's own and is dropped when it returns.
            a, b = _operands_for(source, spec.batch * spec.chunks, spec.n, self.rng)
        if hit is not None:
            job = _SourceJob(source, None)
            job.points = sweep_points_from_dicts(hit["points"])
            return job
        source_fp = self.source_fps[src_index]
        operands_fp = None
        if self.cacheable:
            operands_fp = _result_key({"sweep_operands": self.operand_dict,
                                       "index": src_index, "source": source})
        job = _SourceJob(source, source_fp)
        # quantize operands into the operand format once so the reference
        # sees the same bits the IPU does
        aq = np.asarray(a, self.dtype).astype(np.float64)
        bq = np.asarray(b, self.dtype).astype(np.float64)
        # free each float64 copy once it is used: kept alive through the
        # kernels, they raised the peak enough that the allocator returned
        # memory and faulted it back in for every source (twice the page
        # faults of a serial sweep, measured)
        del a, b
        ref = cpu_fp32_dot_batch(aq, bq).astype(np.float64)
        if spec.chunks > 1:
            ref = ref.reshape(spec.batch, spec.chunks).sum(axis=1)
        job.ref = ref
        pa, pb = session.pack(aq, self.fmt), session.pack(bq, self.fmt)
        del aq, bq
        shape = session._pair_shape(pa, pb)
        job.values = [np.empty(spec.batch * spec.chunks) for _ in self.kernels]
        # serve every stored chunk first, then queue all the cold ones at
        # once, one engine chunk per task: the pool threads share them out
        cold = []
        for start, stop in session._block_spans(shape, workers=1):
            chunk_fp = None
            if self.cacheable:
                chunk_fp = _result_key({"sweep_chunk": operands_fp,
                                        "kernels": self.kernel_descs,
                                        "span": [start, stop]})
                arrays = store.get_arrays("sweep-chunk", chunk_fp)
                if arrays is not None and len(arrays) == len(self.kernels):
                    for k, buf in enumerate(job.values):
                        buf[start:stop] = arrays[f"k{k}"]
                    continue
            cold.append((start, stop, chunk_fp))
        for start, stop, chunk_fp in cold:
            job.futures.append(session.executor.submit(
                self._chunk, job, pa, pb, shape, start, stop, chunk_fp))
        return job

    def _chunk(self, job: _SourceJob, pa, pb, shape, start: int, stop: int,
               chunk_fp: str | None) -> None:
        """One cold chunk task: its values into the source's buffers, then
        into the store."""
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise DeadlineExceeded(
                f"sweep {self.spec.name!r} ran out of its "
                f"{self.deadline_seconds}s budget before chunk "
                f"[{start}, {stop}) of source {job.source!r}")
        chunk = self.session._run_points(_slab(pa, shape, start, stop),
                                         _slab(pb, shape, start, stop),
                                         self.kernels, None)
        for buf, res in zip(job.values, chunk):
            buf[start:stop] = res.values
        if chunk_fp is not None:
            self.store.put_arrays("sweep-chunk", chunk_fp, {
                f"k{k}": res.values for k, res in enumerate(chunk)})

    def finish(self, job: _SourceJob) -> list[SweepPoint]:
        if job.points is not None:
            return job.points
        for future in job.futures:
            future.result()
        spec, ref = self.spec, job.ref
        source_points = []
        for p in spec.points:
            acc = p.acc
            approx = job.values[self.index[p.kernel_key()]]
            if spec.chunks > 1:
                approx = approx.reshape(spec.batch, spec.chunks).sum(axis=1)
            approx = acc.round(approx)
            ref_cast = ref
            if acc.kind == "float" and acc.fmt_name == "fp16":
                ref_cast = ref.astype(np.float16).astype(np.float64)
            source_points.append(SweepPoint(
                job.source, acc.name, p.adder_width,
                error_stats(approx, ref_cast, acc.error_format),
            ))
        if self.cacheable:
            self.store.put_json("sweep-source", job.source_fp,
                                {"points": sweep_points_to_dicts(source_points)})
        return source_points

"""Emulation sessions: one front door for every emulation consumer.

An :class:`EmulationSession` owns the state that ad-hoc entry points used to
re-create per call:

- a **weight-plan cache** for the convolution path, keyed by array
  identity (:meth:`EmulationSession.weight_plan`): the paper's convolution
  unit keeps weights stationary and streams activations, so a layer's
  weights are decoded once and reused by every batch and precision, while
  streamed operands are packed per call;
- a pluggable **execution backend** (:mod:`repro.api.executor`: ``serial`` /
  ``thread`` / ``process``) that splits large batches chunk-granularly —
  rows are independent, so every backend is bit-exact with serial execution
  (verified by the test suite). The process backend ships operand planes
  and result blocks through ``/dev/shm`` files instead of pickling them.

High-level methods cover the repo's workloads: :meth:`inner_product` /
:meth:`inner_products` for kernel points, :meth:`fp_ip_points_iter` for
streaming million-sample batches at bounded memory, :meth:`conv2d` /
:meth:`forward` for emulated inference, :meth:`int_dot` for INT mode, and
:meth:`sweep` for declarative :class:`repro.api.spec.RunSpec` grids (the
Figure-3 protocol, streamed chunk by chunk).
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass

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
from repro.obs.metrics import REGISTRY
from repro.obs.trace import trace_span
from repro.store import ResultStore
from repro.store.fingerprint import fingerprint as _result_key
from repro.utils.rng import as_generator

from repro.api.executor import EXECUTOR_COUNTERS, ExecutorStats, _slab, make_executor
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
    ``kernel_rows`` counts emulated rows and ``parallel_batches`` the calls
    handed to the backend. The inherited :class:`ExecutorStats` fields prove
    the pool engaged (benchmark JSON asserts on them).
    """

    plan_hits: int = 0
    plan_misses: int = 0
    kernel_rows: int = 0
    parallel_batches: int = 0


# SessionStats fields that are monotonic counters (the rest are gauges or
# descriptive strings); shared by the metrics adapter below.
_SESSION_COUNTERS = EXECUTOR_COUNTERS | {
    "plan_hits", "plan_misses", "kernel_rows", "parallel_batches"}


def sweep_points_to_dicts(points) -> list[dict]:
    """JSON-safe encoding of :class:`SweepPoint` lists (store/service wire)."""
    return [
        {"source": p.source, "acc_fmt": p.acc_fmt, "precision": p.precision,
         "stats": asdict(p.stats)}
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
        Execution backend: ``"serial"`` / ``"thread"`` / ``"process"``, an
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
            self, lambda session: session.stats.as_dict(), prefix="repro_session",
            labels={"instance": REGISTRY.next_instance("emulation")},
            counters=_SESSION_COUNTERS)

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

    def kernel_scope(self):
        """Context manager pinning process-backend plan exports.

        Inside the scope, repeated :meth:`run_kernels` calls that reuse the
        same plan object ship it to the workers once instead of once per
        call (no-op on serial/thread backends). Its transport files are
        unlinked when the scope exits.
        """
        return self.executor.plan_scope()

    def _run_points(self, pa: PackedOperands, pb: PackedOperands,
                    points: list[KernelPoint], _unused=None):
        """fp_ip_points through the execution backend when profitable."""
        # _unused: perfbench's golden check calls original(session, pa, pb, points, None)
        if self._closed:
            raise RuntimeError("session is closed")
        shape = self._pair_shape(pa, pb)
        rows = int(np.prod(shape[:-1], dtype=np.int64))
        self.stats.kernel_rows += rows * len(points)
        if (self.executor.workers <= 1 or shape[0] <= 1
                or rows < MIN_PARALLEL_ROWS):
            with trace_span("engine.kernels", rows=rows, kernels=len(points),
                            parallel=False):
                return fp_ip_points(pa, pb, points, chunk_rows=self.chunk_rows)
        self.stats.parallel_batches += 1
        with trace_span("engine.kernels", rows=rows, kernels=len(points),
                        parallel=True, backend=self.executor.name):
            return self.executor.run_points(pa, pb, points, shape,
                                            chunk_rows=self.chunk_rows)

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
        backend, so a process/thread pool parallelizes within blocks.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        shape = self._pair_shape(pa, pb)
        for start, stop in self._block_spans(shape, chunk_rows):
            yield start, stop, self._run_points(
                _slab(pa, shape, start, stop), _slab(pb, shape, start, stop),
                kernels)

    def _block_spans(self, shape, chunk_rows: int | None = None) -> list[tuple[int, int]]:
        """The streaming block boundaries over a pair shape's leading axis."""
        dim0, n = shape[0], shape[-1]
        inner = int(np.prod(shape[1:-1], dtype=np.int64))
        rows_per_block = chunk_rows or self.chunk_rows or default_chunk_rows(n)
        # one block per pool task keeps streaming and parallelism composable
        step = max(1, (rows_per_block // max(inner, 1)) * max(self.executor.workers, 1))
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
        """Run a :class:`RunSpec` grid (the Figure-3 protocol), streamed.

        Per source: sample ``batch * chunks`` operand pairs, compute the
        FP32-CPU reference, pack both operands once, execute every distinct
        kernel configuration off the shared plans **chunk by chunk**
        (:meth:`_stream_kernels`), then apply each point's accumulator
        write-back and error statistics. Points that differ only in
        accumulator share one kernel execution, and only the exact register
        values are retained per kernel — the engine's full five-array output
        never exists for more than one chunk, so million-sample error sweeps
        stay memory-bounded.

        ``rng`` overrides ``spec.seed`` (for callers that thread one
        generator through several runs); JSON replays leave it ``None``.

        ``store`` (or the session's ``store=``) persists results across
        processes: finished sources are stored whole and every computed
        chunk's exact register values are stored as the sweep streams, both
        keyed by the spec's stable fingerprint. A killed sweep re-run
        against the same store replays only the missing chunks; a warm
        re-run skips kernels entirely. An explicit ``rng`` disables
        persistence (generator state has no stable fingerprint). Results
        are bit-identical with and without a store: operands are always
        re-sampled (keeping the cross-source generator state exact) and
        float64 values round-trip the codecs exactly.

        ``deadline_seconds`` bounds the *computing* this call may start: the
        deadline is checked before each cold chunk (never before serving a
        store hit), so a warm replay always succeeds regardless of budget,
        and a sweep that runs out of time raises
        :class:`~repro.chaos.errors.DeadlineExceeded` with every finished
        chunk already persisted — a re-run resumes from where it stopped.
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
        store = self.store if store is None else ResultStore.coerce(store)
        cacheable = store is not None and rng is None
        deadline = (None if deadline_seconds is None
                    else time.monotonic() + deadline_seconds)
        fmt = parse_format(spec.operand_format)
        dtype = np_float_dtype(fmt)
        rng = as_generator(spec.seed if rng is None else rng)
        spec_fp = spec.fingerprint() if cacheable else None
        # chunk entries are keyed below the *kernel* grid (accumulator-only
        # point variants share them), so drop the fields they don't depend on
        if cacheable:
            operand_dict = spec.to_dict()
            for field in ("name", "executor", "points"):
                operand_dict.pop(field, None)
        kernels, index = _dedup_kernels(spec.points)
        # the stored chunk payloads are exact register values, which are
        # accumulator-independent (write-back happens after the store), so
        # the chunk key must not mention acc_fmt — else two accumulator-only
        # spec variants would store byte-identical payloads twice
        kernel_descs = [[k.adder_width, k.software_precision, k.multi_cycle]
                        for k in kernels]
        result = PrecisionSweep()
        for src_index, source in enumerate(spec.sources):
            # always sample (even on a store hit): sources share one
            # generator, so skipping would shift every later source's operands
            a, b = _operands_for(source, spec.batch * spec.chunks, spec.n, rng)
            if cacheable:
                source_fp = _result_key({"sweep_source": spec_fp,
                                         "index": src_index, "source": source})
                hit = store.get_json("sweep-source", source_fp)
                if hit is not None:
                    result.points.extend(sweep_points_from_dicts(hit["points"]))
                    continue
                operands_fp = _result_key({"sweep_operands": operand_dict,
                                           "index": src_index, "source": source})
            # quantize operands into the operand format once so the
            # reference sees the same bits the IPU does
            aq = np.asarray(a, dtype).astype(np.float64)
            bq = np.asarray(b, dtype).astype(np.float64)
            ref = cpu_fp32_dot_batch(aq, bq).astype(np.float64)
            if spec.chunks > 1:
                ref = ref.reshape(spec.batch, spec.chunks).sum(axis=1)
            pa, pb = self.pack(aq, fmt), self.pack(bq, fmt)
            shape = self._pair_shape(pa, pb)
            values = [np.empty(spec.batch * spec.chunks) for _ in kernels]
            for start, stop in self._block_spans(shape):
                if cacheable:
                    chunk_fp = _result_key({"sweep_chunk": operands_fp,
                                            "kernels": kernel_descs,
                                            "span": [start, stop]})
                    arrays = store.get_arrays("sweep-chunk", chunk_fp)
                    if arrays is not None and len(arrays) == len(kernels):
                        for k, buf in enumerate(values):
                            buf[start:stop] = arrays[f"k{k}"]
                        continue
                if deadline is not None and time.monotonic() >= deadline:
                    raise DeadlineExceeded(
                        f"sweep {spec.name!r} ran out of its "
                        f"{deadline_seconds}s budget before chunk "
                        f"[{start}, {stop}) of source {source!r}")
                chunk = self._run_points(_slab(pa, shape, start, stop),
                                         _slab(pb, shape, start, stop), kernels)
                for buf, res in zip(values, chunk):
                    buf[start:stop] = res.values
                if cacheable:
                    store.put_arrays("sweep-chunk", chunk_fp, {
                        f"k{k}": res.values for k, res in enumerate(chunk)})
            source_points = []
            for p in spec.points:
                acc = p.acc
                approx = values[index[p.kernel_key()]]
                if spec.chunks > 1:
                    approx = approx.reshape(spec.batch, spec.chunks).sum(axis=1)
                approx = acc.round(approx)
                ref_cast = ref
                if acc.kind == "float" and acc.fmt_name == "fp16":
                    ref_cast = ref.astype(np.float16).astype(np.float64)
                source_points.append(SweepPoint(
                    source, acc.name, p.adder_width,
                    error_stats(approx, ref_cast, acc.error_format),
                ))
            if cacheable:
                store.put_json("sweep-source", source_fp,
                               {"points": sweep_points_to_dicts(source_points)})
            result.points.extend(source_points)
        return result

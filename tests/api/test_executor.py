"""Execution backends: process/serial bit-identity, streaming, shm hygiene."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from multiprocessing import shared_memory

from repro.api import EmulationSession, ExecutorSpec, PrecisionPoint, RunSpec
from repro.api.executor import chunk_spans, make_executor
from repro.ipu.engine import PackedOperands, pack_operands


def operands(batch=64, n=8, seed=0):
    rng = np.random.default_rng(seed)
    scale = np.exp2(rng.integers(-6, 7, (batch, n)))
    a = (rng.laplace(0, 1, (batch, n)) * scale).astype(np.float16).astype(np.float64)
    b = rng.normal(0, 1, (batch, n)).astype(np.float16).astype(np.float64)
    return a, b


def assert_results_equal(got, want, ctx=""):
    assert np.array_equal(got.values, want.values), ctx
    assert np.array_equal(got.rounded, want.rounded), ctx
    assert got.rounded.dtype == want.rounded.dtype, ctx
    assert np.array_equal(got.max_exp, want.max_exp), ctx
    assert np.array_equal(got.alignment_cycles, want.alignment_cycles), ctx
    assert np.array_equal(got.total_cycles, want.total_cycles), ctx


@pytest.fixture(scope="module")
def process_session():
    """One process-backed session for the whole module (pool reuse)."""
    with EmulationSession(workers=2, backend="process") as s:
        yield s


# -- ExecutorSpec -------------------------------------------------------------

class TestExecutorSpec:
    def test_round_trip_through_run_spec_json(self):
        spec = RunSpec(sources=("laplace",), points=(PrecisionPoint(16),),
                       executor=ExecutorSpec("process", 8))
        again = RunSpec.from_json(spec.to_json())
        assert again == spec
        assert again.executor == ExecutorSpec("process", 8)

    def test_accepts_dict_and_bare_name(self):
        assert RunSpec(points=(PrecisionPoint(16),),
                       executor={"backend": "thread", "workers": 2}
                       ).executor == ExecutorSpec("thread", 2)
        assert ExecutorSpec.from_dict("process") == ExecutorSpec("process")
        assert ExecutorSpec.from_dict(None) == ExecutorSpec()

    def test_rejects_unknown_backend_and_bad_workers(self):
        with pytest.raises(ValueError):
            ExecutorSpec("gpu")
        with pytest.raises(ValueError):
            ExecutorSpec("thread", 0)

    def test_merged_overrides(self):
        spec = ExecutorSpec("thread", 4)
        assert spec.merged(backend="process") == ExecutorSpec("process", 4)
        assert spec.merged(workers=2) == ExecutorSpec("thread", 2)
        assert spec.merged() == spec

    def test_session_accepts_spec_object(self):
        with EmulationSession(backend=ExecutorSpec("process", 2)) as s:
            assert s.stats.backend == "process" and s.stats.workers == 2


# -- chunk-granular task splitting -------------------------------------------

class TestChunkSpans:
    def test_spans_cover_exactly_once(self):
        spans = chunk_spans(100_000, 1, 16, parts_limit=4)
        assert spans[0][0] == 0 and spans[-1][1] == 100_000
        assert all(hi == lo2 for (_, hi), (lo2, _) in zip(spans, spans[1:]))

    def test_edges_align_to_engine_blocks(self):
        # n=16 -> 4096-row blocks; every interior edge is a block multiple
        spans = chunk_spans(100_000, 1, 16, parts_limit=4)
        assert all(lo % 4096 == 0 for lo, _ in spans)

    def test_small_batches_shrink_the_granule(self):
        # fewer rows than one block must still feed every worker
        spans = chunk_spans(6000, 1, 8, parts_limit=2)
        assert len(spans) == 2

    def test_empty_and_single(self):
        assert chunk_spans(0, 1, 16, 4) == []
        assert chunk_spans(1, 1, 16, 4) == [(0, 1)]


# -- PackedOperands codec ------------------------------------------------------

class TestPlanCodec:
    def test_buffers_round_trip(self):
        a, _ = operands(batch=32, n=8)
        plan = pack_operands(a)
        meta, buffers = plan.to_buffers()
        copied = [bytes(np.ascontiguousarray(b)) for b in buffers]
        again = PackedOperands.from_buffers(meta, copied)
        assert again.fmt.name == plan.fmt.name
        assert np.array_equal(again.sign, plan.sign)
        assert np.array_equal(again.exp, plan.exp)
        assert np.array_equal(again.nibbles, plan.nibbles)

    def test_views_are_zero_copy(self):
        a, _ = operands(batch=16, n=4)
        plan = pack_operands(a)
        meta, buffers = plan.to_buffers()
        blob = bytearray(bytes(np.ascontiguousarray(buffers[2])))
        again = PackedOperands.from_buffers(
            meta, [bytes(np.ascontiguousarray(buffers[0])),
                   bytes(np.ascontiguousarray(buffers[1])), memoryview(blob)])
        assert again.nibbles.base is not None  # a view, not a copy


# -- process backend bit-identity ----------------------------------------------

PROPERTY_POINTS = [
    PrecisionPoint(16),                        # int32 fast path at n=16
    PrecisionPoint(16, accumulator="fp16"),
    PrecisionPoint(28),
    PrecisionPoint(38, accumulator="kulisch"),  # int64 work dtype
    PrecisionPoint(12, 28, True),              # multi-cycle serve loop
    PrecisionPoint(10, 28, True),              # many serve cycles (sp = 1)
]


class TestProcessParity:
    def test_inner_products_bit_identical(self, process_session):
        a, b = operands(batch=6000, n=8, seed=11)
        serial = EmulationSession().inner_products(a, b, PROPERTY_POINTS)
        parallel = process_session.inner_products(a, b, PROPERTY_POINTS)
        for s_res, p_res in zip(serial, parallel):
            assert_results_equal(s_res, p_res)

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        seed=st.integers(0, 2**16),
        batch=st.integers(4100, 5200),
        n=st.sampled_from([4, 16]),
        chunks=st.integers(1, 2),
        sources=st.sets(st.sampled_from(["laplace", "normal", "uniform"]),
                        min_size=1, max_size=2),
        points=st.lists(st.sampled_from(PROPERTY_POINTS), min_size=1,
                        max_size=3, unique=True),
    )
    def test_random_run_specs_bit_identical(self, process_session, seed,
                                            batch, n, chunks, sources, points):
        """The property the backend swap hinges on: any RunSpec the API can
        express produces byte-identical sweeps on the process backend."""
        spec = RunSpec(name="prop", sources=tuple(sorted(sources)),
                       points=tuple(points), batch=batch, n=n,
                       chunks=chunks, seed=seed)
        serial = EmulationSession().sweep(spec)
        parallel = process_session.sweep(spec)
        assert serial.points == parallel.points

    def test_emulated_conv_through_process_backend(self, process_session):
        """The per-channel conv loop engages the pool and stays bit-exact."""
        from repro.analysis.accuracy import emulated_conv2d

        rng = np.random.default_rng(20)
        x = rng.normal(0, 1, (16, 3, 18, 18))   # 5184 rows > the pool gate
        w = rng.normal(0, 0.5, (4, 3, 3, 3))
        want = emulated_conv2d(x, w, None, 1, 1, 12)
        got = emulated_conv2d(x, w, None, 1, 1, 12, session=process_session)
        assert np.array_equal(got, want)
        assert process_session.executor.live_segments == []

    def test_custom_registered_format_crosses_fork(self, process_session):
        """Plans resolve formats by registry name in the workers; fork
        inherits parent registrations."""
        rng = np.random.default_rng(5)
        a = rng.normal(0, 1, (5000, 8))
        b = rng.normal(0, 1, (5000, 8))
        serial = EmulationSession().inner_product(a, b, 16, fmt="fp32")
        parallel = process_session.inner_product(a, b, 16, fmt="fp32")
        assert_results_equal(serial, parallel)


# -- streaming ------------------------------------------------------------------

class TestStreaming:
    def test_chunks_concatenate_to_inner_products(self):
        a, b = operands(batch=3000, n=8, seed=6)
        pts = [PrecisionPoint(16, accumulator="fp16"), PrecisionPoint(12, 28, True),
               PrecisionPoint(38, accumulator="kulisch")]
        with EmulationSession() as s:
            full = s.inner_products(a, b, pts)
            seen = []
            edges = []
            for start, stop, chunk in s.fp_ip_points_iter(a, b, pts, chunk_rows=700):
                edges.append((start, stop))
                seen.append(chunk)
        assert len(edges) > 2 and edges[0][0] == 0 and edges[-1][1] == 3000
        for i, res in enumerate(full):
            got_values = np.concatenate([c[i].values for c in seen])
            got_rounded = np.concatenate([c[i].rounded for c in seen])
            assert np.array_equal(got_values, res.values)
            assert np.array_equal(got_rounded, res.rounded)
            assert got_rounded.dtype == res.rounded.dtype
            assert np.array_equal(
                np.concatenate([c[i].total_cycles for c in seen]), res.total_cycles)

    def test_streaming_through_process_backend(self, process_session):
        a, b = operands(batch=9000, n=8, seed=8)
        serial = EmulationSession().inner_product(a, b, 16)
        chunks = list(process_session.fp_ip_points_iter(a, b, [16],
                                                        chunk_rows=3000))
        got = np.concatenate([c[2][0].values for c in chunks])
        assert np.array_equal(got, serial.values)

    def test_bounded_memory(self):
        """Peak extra memory tracks chunk_rows, not the total batch size."""
        rows, n, chunk_rows = 400_000, 4, 4096
        rng = np.random.default_rng(9)
        a = rng.laplace(0, 1, (rows, n)).astype(np.float16).astype(np.float64)
        b = rng.normal(0, 1, (rows, n)).astype(np.float16).astype(np.float64)
        pts = [PrecisionPoint(16), PrecisionPoint(16, accumulator="fp16")]
        with EmulationSession() as s:
            pa, pb = s.pack(a), s.pack(b)  # plans are inputs, not "extra"
            # engine output rows cost 8+8+8+8 bytes plus the accumulator cast
            full_bytes = rows * len(pts) * 36
            tracemalloc.start()
            total = 0.0
            for _, _, chunk in s.fp_ip_points_iter(pa, pb, pts,
                                                   chunk_rows=chunk_rows):
                total += float(chunk[0].values.sum()) + float(chunk[1].values.sum())
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert np.isfinite(total)
        # full materialization would be ~29 MB here; streaming must stay far
        # below it (chunk outputs + engine work buffers only)
        assert peak < full_bytes / 4, f"peak {peak} vs full {full_bytes}"


# -- shared-memory hygiene -------------------------------------------------------

class TestSharedMemoryCleanup:
    def test_segments_unlinked_after_each_call(self, process_session):
        a, b = operands(batch=6000, n=8, seed=12)
        process_session.inner_product(a, b, 16)
        ex = process_session.executor
        names = list(ex.last_segments)
        assert names, "process run should have exported operand planes"
        assert ex.live_segments == []
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_no_segments_leak_after_close(self):
        a, b = operands(batch=6000, n=8, seed=13)
        s = EmulationSession(workers=2, backend="process")
        s.inner_product(a, b, 16)
        ex = s.executor
        names = list(ex.last_segments)
        s.close()
        assert ex.live_segments == []
        assert ex._pool is None
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_close_unlinks_interrupted_exports(self):
        """Segments registered but never unlinked (crash path) die at close."""
        ex = make_executor("process", 2)
        a, _ = operands(batch=64, n=8)
        desc, deferred = ex._export(pack_operands(a))
        assert not deferred
        assert ex.live_segments == [desc["name"]]
        ex.close()
        assert ex.live_segments == []
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=desc["name"])

    def test_kernel_scope_exports_shared_plan_once(self, process_session):
        """Per-channel loops ship a reused plan to the workers one time."""
        a, b = operands(batch=6000, n=8, seed=14)
        with EmulationSession() as serial:
            pa, pb = serial.pack(a), serial.pack(b)
            want = [serial.inner_product(pa, b_row.reshape(1, -1), 16)
                    for b_row in b[:3]]
        s = process_session
        ex = s.executor
        before = ex.shm_bytes_tx
        pa = s.pack(a)
        from repro.ipu.engine import KernelPoint

        with s.kernel_scope():
            rows = [s.run_kernels(pa, s.pack(b[ch:ch + 1]), [KernelPoint(16)])[0]
                    for ch in range(3)]
            assert ex.live_segments  # pinned until scope exit
        assert ex.live_segments == []  # unlinked at scope exit
        # one export of the big activation plan + one tiny row plan per call
        # (tx only: result blocks are counted separately in shm_bytes_rx)
        big_plan_bytes = pa.sign.nbytes + pa.exp.nbytes + pa.nibbles.nbytes
        assert ex.shm_bytes_tx - before < 2 * big_plan_bytes
        for got, ref in zip(rows, want):
            assert np.array_equal(got.values, ref.values)


# -- zero-copy result blocks -----------------------------------------------------

class TestResultBlockCleanup:
    def test_result_files_unlinked_after_each_call(self, process_session):
        import os

        a, b = operands(batch=6000, n=8, seed=21)
        before_rx = process_session.executor.shm_bytes_rx
        got = process_session.inner_product(a, b, 16)
        ex = process_session.executor
        paths = list(ex.last_result_files)
        assert paths, "process run should have allocated a result block"
        assert ex.live_result_files == []
        for path in paths:
            assert not os.path.exists(path)
        # the returned views outlive the unlink (POSIX keeps the mapping)
        assert np.isfinite(got.values).all() or got.values.size
        assert ex.shm_bytes_rx > before_rx
        assert ex.results_pickled == 0

    def test_crash_mid_sweep_unlinks_result_file(self):
        """A worker that dies mid-sweep must not leak its result block.

        An unservable kernel point raises inside the forked worker (the
        parent never resolves points on this path), which is exactly the
        crash shape: the result file exists, futures fail, cleanup must
        still run.
        """
        import os

        ex = make_executor("process", 2)
        try:
            a, b = operands(batch=6000, n=8, seed=22)
            pa, pb = pack_operands(a), pack_operands(b)
            from repro.ipu.engine import KernelPoint

            with pytest.raises(ValueError, match="single-cycle"):
                ex.run_points(pa, pb, [KernelPoint(12, 28, multi_cycle=False)],
                              (6000, 8))
            assert ex.live_result_files == []
            assert ex.live_segments == []
            for path in ex.last_result_files:
                assert not os.path.exists(path)
        finally:
            ex.close()

    def test_close_unlinks_interrupted_result_files(self):
        """Result files registered but never unlinked (crash path) die at
        close, mirroring the operand-segment guarantee."""
        import os

        from repro.api.executor import _create_result_file

        ex = make_executor("process", 2)
        path = _create_result_file(1024)
        ex._live_results.append(path)
        assert ex.live_result_files == [path]
        ex.close()
        assert ex.live_result_files == []
        assert not os.path.exists(path)

    def test_session_stats_prove_zero_pickled_results(self):
        """Acceptance: process sweeps pickle zero kernel outputs and stay
        byte-identical to serial, asserted through the session stats."""
        spec = RunSpec(name="zero-copy", sources=("laplace", "normal"),
                       batch=4200, n=8,
                       points=(PrecisionPoint(12), PrecisionPoint(16, 28, True)))
        with EmulationSession(workers=2, backend="process") as proc:
            parallel = proc.sweep(spec)
            stats = proc.stats
        serial = EmulationSession().sweep(spec)
        assert serial.points == parallel.points
        assert stats.results_pickled == 0
        assert stats.shm_bytes_rx > 0, "result blocks should flow through shm"
        assert stats.shm_bytes_tx > 0, "operand planes should flow through shm"
        assert stats.shm_bytes == stats.shm_bytes_tx + stats.shm_bytes_rx


# -- design sweeps ---------------------------------------------------------------

class TestDesignProcessSweep:
    def test_process_sweep_matches_serial(self):
        from repro.api import DesignSession, DesignSweepSpec

        accuracy = RunSpec(name="quick", sources=("laplace",), batch=300)
        spec = DesignSweepSpec.grid(designs=("MC-IPU4", "INT8"),
                                    tiles=("small",), samples=16)
        with DesignSession(accuracy=accuracy) as ds:
            want = ds.sweep(spec)
        with DesignSession(workers=2, backend="process", accuracy=accuracy) as ds:
            got = ds.sweep(spec)
            assert ds.stats.backend == "process"
            assert ds.stats.tasks_dispatched == len(spec.points())
        assert want == got


# -- runner plumbing ---------------------------------------------------------------

class TestRunnerBackend:
    def test_spec_replay_backend_flag(self, tmp_path, capsys):
        from repro.experiments.runner import main

        spec = RunSpec(name="replay", sources=("laplace",),
                       points=(PrecisionPoint(12), PrecisionPoint(16)),
                       batch=400, n=8, seed=3)
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert main(["--spec", str(path)]) == 0
        serial_out = capsys.readouterr().out.splitlines()
        assert main(["--spec", str(path), "--backend", "process",
                     "--workers", "2"]) == 0
        process_out = capsys.readouterr().out.splitlines()
        strip = lambda lines: [l for l in lines if not l.startswith("[spec ")]
        assert strip(serial_out) == strip(process_out)

    def test_spec_executor_field_applies(self, tmp_path, capsys):
        from repro.experiments.runner import main

        spec = RunSpec(name="replay", sources=("laplace",),
                       points=(PrecisionPoint(16),), batch=200, n=8,
                       executor=ExecutorSpec("thread", 2))
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert main(["--spec", str(path)]) == 0
        capsys.readouterr()

"""Execution backends: thread/serial bit-identity, streaming, spec plumbing."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import EmulationSession, ExecutorSpec, PrecisionPoint, RunSpec
from repro.api.executor import chunk_spans


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
def pooled_session():
    """One 2-worker thread session for the whole module (pool reuse)."""
    with EmulationSession(workers=2, backend="thread") as s:
        yield s


# -- ExecutorSpec -------------------------------------------------------------

class TestExecutorSpec:
    def test_round_trip_through_run_spec_json(self):
        spec = RunSpec(sources=("laplace",), points=(PrecisionPoint(16),),
                       executor=ExecutorSpec("thread", 8))
        again = RunSpec.from_json(spec.to_json())
        assert again == spec
        assert again.executor == ExecutorSpec("thread", 8)

    def test_accepts_dict_and_bare_name(self):
        assert RunSpec(points=(PrecisionPoint(16),),
                       executor={"backend": "thread", "workers": 2}
                       ).executor == ExecutorSpec("thread", 2)
        assert ExecutorSpec.from_dict("thread") == ExecutorSpec("thread")
        assert ExecutorSpec.from_dict(None) == ExecutorSpec()

    def test_rejects_unknown_backend_and_bad_workers(self):
        with pytest.raises(ValueError):
            ExecutorSpec("gpu")
        with pytest.raises(ValueError, match="'serial', 'thread'"):
            ExecutorSpec("process")  # removed backend
        d = RunSpec(points=(PrecisionPoint(16),)).to_dict()
        with pytest.raises(ValueError):
            RunSpec.from_dict({**d, "executor": "process"})
        with pytest.raises(ValueError):
            ExecutorSpec("thread", 0)

    def test_merged_overrides(self):
        spec = ExecutorSpec("serial", 4)
        assert spec.merged(backend="thread") == ExecutorSpec("thread", 4)
        assert spec.merged(workers=2) == ExecutorSpec("serial", 2)
        assert spec.merged() == spec

    def test_session_accepts_spec_object(self):
        with EmulationSession(backend=ExecutorSpec("thread", 2)) as s:
            assert s.stats.backend == "thread" and s.stats.workers == 2


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


# -- pooled backend bit-identity -----------------------------------------------

PROPERTY_POINTS = [
    PrecisionPoint(16),                        # int32 fast path at n=16
    PrecisionPoint(16, accumulator="fp16"),
    PrecisionPoint(28),
    PrecisionPoint(38, accumulator="kulisch"),  # int64 work dtype
    PrecisionPoint(12, 28, True),              # multi-cycle serve loop
    PrecisionPoint(10, 28, True),              # many serve cycles (sp = 1)
]


class TestProcessParity:
    def test_inner_products_bit_identical(self, pooled_session):
        a, b = operands(batch=6000, n=8, seed=11)
        serial = EmulationSession().inner_products(a, b, PROPERTY_POINTS)
        parallel = pooled_session.inner_products(a, b, PROPERTY_POINTS)
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
    def test_random_run_specs_bit_identical(self, pooled_session, seed,
                                            batch, n, chunks, sources, points):
        """The property the backend swap hinges on: any RunSpec the API can
        express produces byte-identical sweeps on the pooled backend."""
        spec = RunSpec(name="prop", sources=tuple(sorted(sources)),
                       points=tuple(points), batch=batch, n=n,
                       chunks=chunks, seed=seed)
        serial = EmulationSession().sweep(spec)
        parallel = pooled_session.sweep(spec)
        assert serial.points == parallel.points

    def test_emulated_conv_through_process_backend(self, pooled_session):
        """The per-channel conv loop engages the pool and stays bit-exact
        (the name predates the thread-only pooled backend)."""
        from repro.analysis.accuracy import emulated_conv2d

        rng = np.random.default_rng(20)
        x = rng.normal(0, 1, (16, 3, 18, 18))   # 5184 rows > the pool gate
        w = rng.normal(0, 0.5, (4, 3, 3, 3))
        want = emulated_conv2d(x, w, None, 1, 1, 12)
        before = pooled_session.stats.tasks_dispatched
        got = emulated_conv2d(x, w, None, 1, 1, 12, session=pooled_session)
        assert np.array_equal(got, want)
        assert pooled_session.stats.tasks_dispatched > before

    def test_custom_registered_format_crosses_fork(self, pooled_session):
        """A non-default registry format (fp32 plans) splits across the
        pool bit-identically."""
        rng = np.random.default_rng(5)
        a = rng.normal(0, 1, (5000, 8))
        b = rng.normal(0, 1, (5000, 8))
        serial = EmulationSession().inner_product(a, b, 16, fmt="fp32")
        parallel = pooled_session.inner_product(a, b, 16, fmt="fp32")
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

    def test_streaming_through_process_backend(self, pooled_session):
        a, b = operands(batch=9000, n=8, seed=8)
        serial = EmulationSession().inner_product(a, b, 16)
        chunks = list(pooled_session.fp_ip_points_iter(a, b, [16],
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


# -- design sweeps ---------------------------------------------------------------

class TestDesignProcessSweep:
    def test_process_sweep_matches_serial(self):
        """A 2-worker pooled design sweep equals the serial one."""
        from repro.api import DesignSession, DesignSweepSpec

        accuracy = RunSpec(name="quick", sources=("laplace",), batch=300)
        spec = DesignSweepSpec.grid(designs=("MC-IPU4", "INT8"),
                                    tiles=("small",), samples=16)
        with DesignSession(accuracy=accuracy) as ds:
            want = ds.sweep(spec)
        with DesignSession(workers=2, backend="thread", accuracy=accuracy) as ds:
            got = ds.sweep(spec)
            assert ds.stats.backend == "thread"
            assert ds.stats.tasks_dispatched == len(spec.points())
        assert want == got


# -- runner plumbing ---------------------------------------------------------------

class TestRunnerBackend:
    def test_spec_replay_backend_flag(self, tmp_path, capsys):
        """The flag's choices; that every choice replays the same bytes is
        checked by tests/test_equivalence.py."""
        from repro.experiments.runner import main

        spec = RunSpec(name="replay", sources=("laplace",),
                       points=(PrecisionPoint(12),), batch=400, n=8, seed=3)
        path = tmp_path / "spec.json"
        spec.to_json(path)
        # the removed process backend is an argparse error naming the choices
        with pytest.raises(SystemExit) as exc:
            main(["--spec", str(path), "--backend", "process"])
        assert exc.value.code == 2
        assert "'thread'" in capsys.readouterr().err

    def test_spec_executor_field_applies(self, tmp_path, capsys):
        from repro.experiments.runner import main

        spec = RunSpec(name="replay", sources=("laplace",),
                       points=(PrecisionPoint(16),), batch=200, n=8,
                       executor=ExecutorSpec("thread", 2))
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert main(["--spec", str(path)]) == 0
        capsys.readouterr()


# -- pipelined sweep ----------------------------------------------------------

# Patches the kernel hook the way perfbench's golden pass does (five
# positional args) and records every call; run in a child process so a
# nested-pool deadlock fails the test on its timeout instead of hanging it.
_GOLDEN_HOOK_SCRIPT = """\
import json, threading
from repro.api import EmulationSession, RunSpec
from repro.api.executor import ThreadExecutor
from repro.api.session import sweep_points_to_dicts

spec = RunSpec.from_json("examples/specs/fig3_quick.json")
calls, nested = [], []
original = EmulationSession._run_points
def sampled(session, pa, pb, points, engine=None):
    results = original(session, pa, pb, points, engine)
    calls.append([len(results[0].values), len(points),
                  threading.current_thread().name])
    return results
run_points = ThreadExecutor.run_points
def counted(self, *args, **kwargs):
    nested.append(1)
    return run_points(self, *args, **kwargs)
EmulationSession._run_points = sampled
ThreadExecutor.run_points = counted
with EmulationSession(backend="thread", workers=2) as session:
    sweep = session.sweep(spec)
    tasks = session.stats.tasks_dispatched
print(json.dumps({"calls": calls, "nested": len(nested), "tasks": tasks,
                  "points": sweep_points_to_dicts(sweep.points)}))
"""


class TestPipelinedSweep:
    def test_golden_hook_sees_every_cold_row_once(self):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.api.session import sweep_points_to_dicts

        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", _GOLDEN_HOOK_SCRIPT],
                              cwd=root, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        out = json.loads(proc.stdout)
        spec = RunSpec.from_json(root / "examples/specs/fig3_quick.json")
        kernels = len({p.kernel_key() for p in spec.points})
        # every chunk task entered the kernels through the hook, on the pool
        assert out["tasks"] > 0 and len(out["calls"]) == out["tasks"]
        assert sum(rows for rows, _, _ in out["calls"]) == \
            len(spec.sources) * spec.batch * spec.chunks
        assert all(n == kernels for _, n, _ in out["calls"])
        assert all(name.startswith("repro-exec") for _, _, name in out["calls"])
        assert out["nested"] == 0  # no pool task fanned out again
        with EmulationSession() as serial:
            assert out["points"] == sweep_points_to_dicts(serial.sweep(spec).points)

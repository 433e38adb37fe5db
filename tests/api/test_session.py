"""EmulationSession: weight-plan reuse, parallel bit-exactness, consumer parity."""

import sys

import numpy as np
import pytest

from repro.api import EmulationSession, PrecisionPoint, RunSpec
from repro.fp.formats import FP16, FP32
from repro.ipu.engine import KernelPoint, fp_ip_points, pack_operands, plan_values


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


class TestPlanCache:
    def test_pack_passthrough_checks_format(self):
        a, _ = operands()
        plan = pack_operands(a, FP16)
        s = EmulationSession()
        assert s.pack(plan) is plan
        with pytest.raises(ValueError):
            s.pack(plan, "fp32")

    def test_weight_plans_reused_across_precisions_and_batches(self):
        """Each conv layer's weights decode once per session: 2 precisions x
        2 batches over tiny_convnet's 4 convs is 16 conv calls, 4 decodes and
        12 reuses, and the reused plans give a fresh session's logits."""
        from repro.analysis.accuracy import accuracy_vs_precision, emulated_forward
        from repro.nn.models import model_conv_layers, tiny_convnet

        rng = np.random.default_rng(11)
        model = tiny_convnet(rng=rng)
        images = rng.normal(0, 1, (4, 3, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 4, 4)
        layers = len(model_conv_layers(model))
        with EmulationSession() as s:
            accuracy_vs_precision(model, images, labels, (8, 16), batch_size=2,
                                  session=s)
            assert s.stats.plan_misses == layers
            assert s.stats.plan_hits == 2 * 2 * layers - layers
            for width in (8, 16):
                with EmulationSession() as fresh:
                    want = emulated_forward(model, images[:2], width, session=fresh)
                got = emulated_forward(model, images[:2], width, session=s)
                assert np.array_equal(got, want)

    def test_weight_plan_counts_under_contention(self):
        """Threads sharing a session (the service does) lose no count and
        decode each weight array once."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        weights = [np.random.default_rng(i).normal(size=(64, 16, 3, 3)) for i in range(40)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with EmulationSession() as s, ThreadPoolExecutor(8) as pool:
                calls = [pool.submit(s.weight_plan, w, 16) for w in weights for _ in range(8)]
                plans = [f.result(timeout=60) for f in calls]
        finally:
            sys.setswitchinterval(old)
        assert s.stats.plan_misses == len(weights)
        assert s.stats.plan_hits == len(calls) - len(weights)
        assert len({id(p) for p in plans}) == len(weights)

    def test_plan_values_round_trip(self):
        a, _ = operands()
        assert np.array_equal(plan_values(pack_operands(a, FP16)),
                              a.astype(np.float16).astype(np.float64))

    def test_close_clears_state(self):
        a, b = operands()
        s = EmulationSession(workers=2)
        s.inner_product(a, b, 16)
        s.weight_plan(a.reshape(8, 8, 8, 1), 16)
        s.close()
        assert not s._weight_plans and s.executor._pool is None


class TestKernels:
    def test_inner_product_matches_engine(self):
        a, b = operands()
        s = EmulationSession()
        got = s.inner_product(a, b, PrecisionPoint(12, 28, True))
        want = fp_ip_points(pack_operands(a, FP16), pack_operands(b, FP16),
                            [KernelPoint(12, 28, True)])[0]
        assert_results_equal(got, want)

    def test_int_points_accepted(self):
        a, b = operands()
        s = EmulationSession()
        assert_results_equal(s.inner_product(a, b, 16),
                             s.inner_product(a, b, PrecisionPoint(16)))

    def test_accumulator_variants_share_kernel(self):
        a, b = operands()
        s = EmulationSession()
        r16, r32 = s.inner_products(
            a, b, [PrecisionPoint(16, accumulator="fp16"), PrecisionPoint(16)])
        assert np.array_equal(r16.values, r32.values)
        assert r16.rounded.dtype == np.float16
        assert r32.rounded.dtype == np.float32

    def test_exact_accumulator_keeps_register_bits(self):
        """kulisch write-back is the identity: .rounded == exact .values."""
        a, b = operands()
        res = EmulationSession().inner_product(
            a, b, PrecisionPoint(38, accumulator="kulisch"))
        assert res.rounded.dtype == np.float64
        assert np.array_equal(res.rounded, res.values)

    def test_int_dot(self):
        s = EmulationSession()
        a = np.array([[1, -2, 3, 4]])
        b = np.array([[5, 6, -7, 7]])
        res, cycles = s.int_dot(a, b, 4, 4)
        assert res[0] == 1 * 5 - 12 - 21 + 28
        assert cycles == 1
        with pytest.raises(OverflowError):
            s.int_dot(a, np.array([[8, 0, 0, 0]]), 4, 4)

    def test_rejects_bad_point_type(self):
        a, b = operands()
        with pytest.raises(TypeError):
            EmulationSession().inner_product(a, b, "16")


class TestParallel:
    @pytest.mark.parametrize("backend", ["thread"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_bit_exact(self, workers, backend):
        a, b = operands(batch=6000, n=8, seed=3)
        points = [PrecisionPoint(12), PrecisionPoint(16),
                  PrecisionPoint(12, 28, True)]
        serial = EmulationSession().inner_products(a, b, points)
        with EmulationSession(workers=workers, backend=backend) as par:
            parallel = par.inner_products(a, b, points)
            assert par.stats.parallel_batches == 1
            assert par.stats.backend == backend
            assert par.stats.tasks_dispatched == workers
        for s_res, p_res in zip(serial, parallel):
            assert_results_equal(s_res, p_res)

    @pytest.mark.parametrize("backend", ["thread"])
    def test_parallel_broadcast_weight_row(self, backend):
        """A single weight plan row broadcast against a parallel batch."""
        a, b = operands(batch=5000, n=8, seed=4)
        w = b[:1]
        serial = EmulationSession().inner_product(a, w, 16)
        with EmulationSession(workers=4, backend=backend) as par:
            parallel = par.inner_product(a, w, 16)
        assert_results_equal(serial, parallel)

    def test_shared_session_counts_exactly(self):
        """Stats written from many threads at once lose no update: 4 threads
        x 50 pooled ``run_kernels`` calls on one session."""
        from concurrent.futures import ThreadPoolExecutor

        a, b = operands(batch=4096, n=4, seed=7)
        pa, pb = pack_operands(a, FP16), pack_operands(b, FP16)
        points = [KernelPoint(16)]

        def calls():
            for _ in range(50):
                s.run_kernels(pa, pb, points)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often
        try:
            with EmulationSession(workers=2, backend="thread") as s, \
                    ThreadPoolExecutor(4) as callers:
                for future in [callers.submit(calls) for _ in range(4)]:
                    future.result(timeout=120)
                stats = s.snapshot()
        finally:
            sys.setswitchinterval(interval)
        assert stats.kernel_rows == 4 * 50 * 4096
        assert stats.parallel_batches == 4 * 50
        assert stats.tasks_dispatched == 4 * 50 * 2

    def test_small_batches_stay_serial(self):
        a, b = operands(batch=16)
        with EmulationSession(workers=4) as s:
            s.inner_product(a, b, 16)
            assert s.stats.parallel_batches == 0
            assert s.executor._pool is None

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            EmulationSession(workers=0)

    def test_workers_default_to_thread_backend(self):
        with EmulationSession(workers=2) as s:
            assert s.stats.backend == "thread"
        with EmulationSession() as s:
            assert s.stats.backend == "serial"


class TestSweep:
    def spec(self, **kw):
        base = dict(precisions=(12, 16), accumulators=("fp16", "fp32"),
                    sources=("laplace",), batch=400, n=8, chunks=2, seed=7)
        base.update(kw)
        return RunSpec.grid(**base)

    def test_sweep_point_grid(self):
        sweep = EmulationSession().sweep(self.spec())
        assert [(p.source, p.acc_fmt, p.precision) for p in sweep.points] == [
            ("laplace", "fp16", 12), ("laplace", "fp32", 12),
            ("laplace", "fp16", 16), ("laplace", "fp32", 16),
        ]

    def test_sweep_deterministic_from_seed(self):
        s = EmulationSession()
        assert s.sweep(self.spec()).points == s.sweep(self.spec()).points

    def test_parallel_sweep_bit_identical(self):
        spec = self.spec(batch=3000, chunks=2)
        serial = EmulationSession().sweep(spec)
        with EmulationSession(workers=3) as par:
            parallel = par.sweep(spec)
        assert serial.points == parallel.points

    def test_kulisch_accumulator_is_near_exact(self):
        """Exact accumulation at width 38 differs from the FP32-CPU reference
        only by the reference's own per-step float32 rounding."""
        spec = self.spec(precisions=(38,), accumulators=("kulisch",), chunks=1)
        sweep = EmulationSession().sweep(spec)
        stats = sweep.points[0].stats
        assert stats.median_abs_error < 1e-6
        assert stats.median_rel_error_pct < 1e-4

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            EmulationSession().sweep(RunSpec(points=()))


class TestEmulatedInference:
    def _model_and_batch(self):
        from repro.nn.models import tiny_convnet

        rng = np.random.default_rng(0)
        model = tiny_convnet(rng=rng)
        x = rng.normal(0, 1, (2, 3, 12, 12)).astype(np.float32)
        return model, x

    def test_conv2d_matches_direct_path(self):
        from repro.analysis.accuracy import emulated_conv2d

        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (2, 3, 8, 8))
        w = rng.normal(0, 0.5, (4, 3, 3, 3))
        bias = rng.normal(0, 0.1, 4)
        want = emulated_conv2d(x, w, bias, 1, 1, 16)
        with EmulationSession() as s:
            got = s.conv2d(x, w, bias, stride=1, padding=1, precision=16)
            again = s.conv2d(x, w, bias, stride=1, padding=1, precision=12)
        assert np.array_equal(got, want)
        assert s.stats.plan_hits == 1  # second precision reused the weight plan
        assert not np.array_equal(again, want)

    def test_forward_matches_direct_path(self):
        from repro.analysis.accuracy import emulated_forward

        model, x = self._model_and_batch()
        want = emulated_forward(model, x, 12, FP32)
        with EmulationSession() as s:
            got = s.forward(model, x, 12)
        assert np.array_equal(got, want)

    def test_forward_none_is_reference(self):
        model, x = self._model_and_batch()
        with EmulationSession() as s:
            model.eval()
            assert np.array_equal(s.forward(model, x, None), model(x))

    def test_non_float_accumulator_rejected(self):
        model, x = self._model_and_batch()
        with pytest.raises(ValueError):
            EmulationSession().forward(model, x, 12, accumulator="kulisch")

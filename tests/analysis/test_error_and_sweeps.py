"""Error metrics and the §3.1 precision conclusions at reduced scale."""

import numpy as np
import pytest

from repro.analysis.error import contaminated_bits, error_stats
from repro.analysis.sweeps import recommended_min_precision
from repro.api import EmulationSession, RunSpec
from repro.fp.formats import FP16, FP32


class TestContaminatedBits:
    def test_identical_values_zero_bits(self):
        a = np.array([1.5, -2.25, 0.0])
        assert np.all(contaminated_bits(a, a, FP32) == 0)

    def test_single_ulp_difference_is_small(self):
        a = np.array([1.0], np.float32)
        b = np.nextafter(a, 2.0)
        assert contaminated_bits(a, b, FP32)[0] >= 1

    def test_sign_flip_contaminates(self):
        a = np.array([1.0])
        assert contaminated_bits(a, -a, FP32)[0] == 1

    def test_fp16_mode(self):
        a = np.array([1.0])
        b = np.array([1.0 + 2**-10])
        assert contaminated_bits(a, b, FP16)[0] == 1


class TestErrorStats:
    def test_zero_error(self):
        ref = np.array([1.0, 2.0, -3.0])
        s = error_stats(ref, ref, FP32)
        assert s.median_abs_error == 0
        assert s.median_rel_error_pct == 0
        assert s.median_contaminated_bits == 0

    def test_relative_error_skips_zero_references(self):
        approx = np.array([0.1, 2.0])
        ref = np.array([0.0, 2.0])
        s = error_stats(approx, ref, FP32)
        assert np.isfinite(s.mean_rel_error_pct)

    def test_percent_scaling(self):
        approx = np.array([1.01])
        ref = np.array([1.0])
        s = error_stats(approx, ref, FP32)
        assert s.median_rel_error_pct == pytest.approx(1.0)


def fig3_sweep(sources, precisions, batch, chunks=1, seed=0):
    """The Figure-3 grid (fp16 + fp32 accumulators) through a session."""
    spec = RunSpec.grid(precisions=precisions, accumulators=("fp16", "fp32"),
                        sources=sources, batch=batch, chunks=chunks, seed=seed)
    with EmulationSession() as session:
        return session.sweep(spec)


class TestFig3Conclusions:
    @pytest.fixture(scope="class")
    def sweep(self):
        return fig3_sweep(
            sources=("laplace", "normal", "uniform"),
            precisions=(8, 12, 16, 20, 24, 28, 38),
            batch=4000,
            seed=0,
        )

    def test_fp16_needs_16_bits(self, sweep):
        """The paper's headline: 16-bit IPU precision for FP16 accumulation."""
        assert recommended_min_precision(sweep, "fp16") == 16

    def test_fp16_at_16_bits_zero_median_contamination(self, sweep):
        for src in ("laplace", "normal", "uniform"):
            series = dict(sweep.series(src, "fp16", "median_contaminated_bits"))
            assert series[16] == 0

    def test_fp32_needs_more_than_fp16(self, sweep):
        assert recommended_min_precision(sweep, "fp32") > 16

    def test_error_monotone_in_precision(self, sweep):
        for acc in ("fp16", "fp32"):
            for src in ("laplace", "normal", "uniform"):
                series = [v for _, v in sweep.series(src, acc, "median_abs_error")]
                assert all(a >= b - 1e-15 for a, b in zip(series, series[1:]))

    def test_8bit_visibly_wrong(self, sweep):
        series = dict(sweep.series("laplace", "fp32", "median_rel_error_pct"))
        assert series[8] > 1.0  # percent-level error at 8-bit precision

    def test_38bit_error_free_for_fp16_acc(self, sweep):
        series = dict(sweep.series("normal", "fp16", "median_abs_error"))
        assert series[38] == 0

    def test_chained_chunks_push_fp32_requirement_up(self):
        short = fig3_sweep(sources=("laplace",), precisions=(16, 20, 24, 28),
                           batch=2000, chunks=1, seed=1)
        long = fig3_sweep(sources=("laplace",), precisions=(16, 20, 24, 28),
                          batch=1000, chunks=8, seed=1)
        s16 = dict(short.series("laplace", "fp32", "median_contaminated_bits"))[16]
        l16 = dict(long.series("laplace", "fp32", "median_contaminated_bits"))[16]
        assert l16 >= s16

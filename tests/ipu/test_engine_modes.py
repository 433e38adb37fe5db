"""Fused-vs-unfused bit identity (against the seed kernel) and buffers."""

import numpy as np
import pytest

from repro.fp.formats import FP16
from repro.ipu.engine import KernelPoint, fp_ip_points, pack_operands
from repro.ipu.seedref import fp_ip_batch_seed

from test_engine import CONFIGS, assert_results_equal, wide_operands


def operand_pair(seed=3, shape=(300, 16)):
    return wide_operands(np.random.default_rng(seed), shape)


def packed_pair(seed=3, shape=(300, 16)):
    a, b = operand_pair(seed, shape)
    return pack_operands(a), pack_operands(b)


def overflow_regime_operands(n=100_000):
    """Operands sized past the int32 adder-tree-sum boundary.

    All-positive, all-nibbles-lit lanes maximize the n-lane tree sums, and
    the exponent split puts half the lanes in serve cycle 0 and half in
    cycle 1, so the MC pairing step (which scales cycle-0 words by
    ``2**sp``) is exercised right where its headroom proof must account
    for n — a regression guard for the paired-sum overflow.
    """
    a = np.full((2, n), 1.9375)
    a[:, n // 2:] = 1.9375 * 2.0**-7
    b = np.full((2, n), 1.9375)
    return a, b


def fused_and_seed(a, b, points):
    """The fused engine and the unfused seed kernel on the same operands.

    The seed kernel sums every pass in int64, so it stays a valid reference
    at lane counts where the fused work dtype needs its headroom gates.
    """
    fused = fp_ip_points(pack_operands(a), pack_operands(b), points)
    seed = [fp_ip_batch_seed(a, b, p.adder_width, p.software_precision,
                             acc_fmt=p.acc_fmt, multi_cycle=p.multi_cycle)
            for p in points]
    return fused, seed


class TestFusedUnfusedParity:
    @pytest.mark.parametrize("w,sw,mc", CONFIGS)
    def test_bit_identical_per_config(self, w, sw, mc):
        a, b = operand_pair(seed=w * 100 + sw)
        fused, seed = fused_and_seed(a, b, [KernelPoint(w, sw, mc)])
        assert_results_equal(fused[0], seed[0], (w, sw, mc))

    def test_multi_point_mixed_modes(self):
        """One fused call over mixed single/MC/acc points == the seed kernel."""
        a, b = operand_pair(seed=29, shape=(257, 12))
        points = [
            KernelPoint(8), KernelPoint(16, acc_fmt=FP16), KernelPoint(28),
            KernelPoint(38), KernelPoint(12, 28, multi_cycle=True),
            KernelPoint(10, 28, multi_cycle=True),
        ]
        fused, seed = fused_and_seed(a, b, points)
        for f, s, p in zip(fused, seed, points):
            assert_results_equal(f, s, p)

    def test_bit_identical_near_int32_sum_boundary(self):
        """n large enough that the int32 work dtype still applies but the
        paired MC reduction would wrap without the n-aware headroom gate
        (w=15 -> sp=6: int32 admits n up to ~150k, yet n*225 << (up+sp)
        is far past 2**31)."""
        a, b = overflow_regime_operands()
        points = [KernelPoint(15, 28, multi_cycle=True),
                  KernelPoint(12, 28, multi_cycle=True)]
        fused, seed = fused_and_seed(a, b, points)
        for f, s, p in zip(fused, seed, points):
            assert_results_equal(f, s, p)

    def test_bit_identical_random_large_n(self):
        """Random operands at int32-boundary lane counts, fused == seed."""
        rng = np.random.default_rng(53)
        for w, n in [(15, 100_000), (12, 140_000), (10, 60_000)]:
            a, b = wide_operands(rng, (2, n))
            fused, seed = fused_and_seed(a, b, [KernelPoint(w, 28, multi_cycle=True)])
            assert_results_equal(fused[0], seed[0], (w, n))

    def test_forced_int64_matches_int32(self):
        pa, pb = packed_pair(seed=31)
        for w, sw, mc in CONFIGS:
            points = [KernelPoint(w, sw, mc)]
            narrow = fp_ip_points(pa, pb, points)
            wide = fp_ip_points(pa, pb, points, work_dtype=np.int64)
            assert_results_equal(narrow[0], wide[0], (w, sw, mc))


class TestWorkBufferReuse:
    def test_repeated_point_results_do_not_alias(self):
        """Shared work buffers must never alias into returned results."""
        pa, pb = packed_pair(seed=37)
        points = [KernelPoint(16), KernelPoint(16), KernelPoint(16)]
        results = fp_ip_points(pa, pb, points)
        baseline = results[0].values.copy()
        for r in results[1:]:
            assert np.array_equal(r.values, baseline)
            assert not np.shares_memory(r.values, results[0].values)
            assert not np.shares_memory(r.rounded, results[0].rounded)
        results[1].values[:] = -1.0  # scribbling must not leak across points
        assert np.array_equal(results[0].values, baseline)
        assert np.array_equal(results[2].values, baseline)

    def test_point_order_does_not_change_bits(self):
        """The dtype-grouped cascade shares one product tensor across
        precisions; order of request must be invisible."""
        pa, pb = packed_pair(seed=41)
        widths = [8, 12, 16, 20, 24, 26, 28]
        fwd = fp_ip_points(pa, pb, [KernelPoint(w) for w in widths])
        rev = fp_ip_points(pa, pb, [KernelPoint(w) for w in reversed(widths)])
        for f, r, w in zip(fwd, reversed(rev), widths):
            assert_results_equal(f, r, w)


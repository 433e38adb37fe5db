"""Bit-exact equivalence of the vectorized emulation vs the golden model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.formats import FP16, FP32
from repro.ipu.ipu import InnerProductUnit, IPUConfig
from repro.ipu.reference import cpu_fp32_dot_batch

from test_engine import emulate

CONFIGS = [
    (16, 16, False),  # FP16-accumulator single cycle
    (28, 28, False),  # FP32-accumulator single cycle
    (38, 38, False),  # baseline
    (12, 12, False),  # Fig-3 analysis point
    (8, 8, False),    # sub-product window
    (12, 28, True),   # MC-IPU(12) serving FP32 precision
    (16, 28, True),   # MC-IPU(16)
    (20, 28, True),
    (12, 16, True),   # MC-IPU(12) serving FP16 precision
]


def bits_of(row):
    return [int(v) for v in np.asarray(row, np.float16).view(np.uint16)]


@pytest.mark.parametrize("w,sw,mc", CONFIGS)
def test_bit_exact_vs_scalar_golden(w, sw, mc):
    rng = np.random.default_rng(w * 1000 + sw)
    n = 8
    a = (rng.laplace(0, 1, (40, n)) * np.exp2(rng.integers(-6, 7, (40, n)))).astype(np.float16)
    b = rng.normal(0, 1, (40, n)).astype(np.float16)
    a64, b64 = a.astype(np.float64), b.astype(np.float64)
    batch = emulate(a64, b64, adder_width=w, software_precision=sw, multi_cycle=mc)
    for r in range(40):
        scalar = InnerProductUnit(IPUConfig(n_inputs=n, adder_width=w, software_precision=sw))
        res = scalar.fp_dot(bits_of(a[r]), bits_of(b[r]), FP16, FP32)
        sig, scale = scalar.accumulator.exact()
        assert float(sig) * 2.0**scale == batch.values[r], (w, sw, mc, r)
        assert res.alignment_cycles == batch.alignment_cycles[r]
        assert res.cycles == batch.total_cycles[r]


class TestBatchSemantics:
    def test_baseline_total_cycles_is_nine(self):
        a = np.ones((5, 8))
        res = emulate(a, a, adder_width=38)
        assert np.all(res.total_cycles == 9)

    def test_rounded_matches_values_cast(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1, (64, 16))
        b = rng.normal(0, 1, (64, 16))
        res = emulate(a, b, adder_width=28, acc_fmt=FP32)
        assert np.array_equal(res.rounded, res.values.astype(np.float32))

    def test_single_cycle_cannot_serve_wider_software_precision(self):
        a = np.ones((2, 8))
        with pytest.raises(ValueError):
            emulate(a, a, adder_width=12, software_precision=28, multi_cycle=False)

    def test_subnormal_inputs_handled(self):
        a = np.full((3, 8), 2.0**-24)
        b = np.ones((3, 8))
        res = emulate(a, b, adder_width=38)
        assert np.allclose(res.values, 8 * 2.0**-24)

    def test_all_zero_batch(self):
        z = np.zeros((4, 8))
        res = emulate(z, z, adder_width=16)
        assert np.all(res.values == 0)
        assert np.all(res.alignment_cycles == 1)

    def test_error_decreases_monotonically_with_precision(self):
        """Median |error| vs the CPU reference must be non-increasing in w."""
        rng = np.random.default_rng(3)
        a = rng.laplace(0, 1, (3000, 16)).astype(np.float16).astype(np.float64)
        b = rng.laplace(0, 1, (3000, 16)).astype(np.float16).astype(np.float64)
        ref = cpu_fp32_dot_batch(a, b).astype(np.float64)
        meds = []
        for w in (8, 12, 16, 20, 24, 28):
            res = emulate(a, b, adder_width=w)
            meds.append(np.median(np.abs(res.values - ref)))
        assert all(x >= y - 1e-12 for x, y in zip(meds, meds[1:])), meds

    def test_mc_more_accurate_than_truncating_same_width(self):
        """MC-IPU(12) serving sw=28 beats single-cycle IPU(12) on wide data."""
        rng = np.random.default_rng(4)
        a = (rng.normal(0, 1, (2000, 8)) * np.exp2(rng.integers(-8, 9, (2000, 8))))
        a = a.astype(np.float16).astype(np.float64)
        b = rng.normal(0, 1, (2000, 8)).astype(np.float16).astype(np.float64)
        ref = cpu_fp32_dot_batch(a, b).astype(np.float64)
        err_mc = np.abs(emulate(a, b, 12, 28, multi_cycle=True).values - ref)
        err_sc = np.abs(emulate(a, b, 12).values - ref)
        assert np.median(err_mc) <= np.median(err_sc)
        assert err_mc.mean() < err_sc.mean()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([10, 12, 16, 22, 28, 38]))
def test_alignment_cycles_bounds(seed, w):
    rng = np.random.default_rng(seed)
    a = rng.laplace(0, 1, (16, 8))
    b = rng.laplace(0, 1, (16, 8))
    sw = 28
    mc = w < sw
    res = emulate(a, b, adder_width=w, software_precision=sw, multi_cycle=mc)
    assert np.all(res.alignment_cycles >= 1)
    if mc:
        sp = w - 9
        max_cycles = -(-(sw - 1) // sp)
        assert np.all(res.alignment_cycles <= max_cycles)
    else:
        assert np.all(res.alignment_cycles == 1)

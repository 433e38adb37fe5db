"""MC-IPU: multi-cycle alignment preserves accuracy on narrow adders (§3.2)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fp.formats import FP16, FP32
from repro.ipu.ipu import InnerProductUnit, IPUConfig
from repro.ipu.mc_ipu import BASELINE_ADDER_WIDTH, make_baseline_ipu, make_mc_ipu
from repro.ipu.reference import masked_exact_fp_ip


def bits_of(values):
    return [int(v) for v in np.asarray(values, np.float16).view(np.uint16)]


class TestConstructors:
    def test_baseline_is_38_bits_and_single_cycle(self):
        ipu = make_baseline_ipu(FP32, 8)
        assert ipu.config.adder_width == BASELINE_ADDER_WIDTH == 38
        assert ipu.config.single_cycle

    def test_mc_ipu12_for_fp32_multicycles(self):
        ipu = make_mc_ipu(12, FP32, 8)
        assert not ipu.config.single_cycle
        assert ipu.config.sp == 3

    def test_mc_ipu16_for_fp16_is_single_cycle(self):
        """Paper §4.3: a 16b+ adder tree never multi-cycles for FP16 acc."""
        assert make_mc_ipu(16, FP16, 8).config.single_cycle

    def test_mc_rejects_sub_product_window(self):
        with pytest.raises(ValueError):
            make_mc_ipu(9, FP32, 8)


class TestMCAccuracy:
    """The core §3.2 claim: MC-IPU(w) with software precision sw reaches the
    same accuracy as a wide (sw-bit) single-cycle IPU, paying cycles."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([12, 14, 16, 20, 24]))
    def test_mc_close_to_masked_exact(self, seed, width):
        rng = np.random.default_rng(seed)
        a = rng.laplace(0, 2, 8)
        b = rng.laplace(0, 2, 8)
        ab, bb = bits_of(a), bits_of(b)
        mc = InnerProductUnit(IPUConfig(n_inputs=8, adder_width=width, software_precision=28))
        res = mc.fp_dot(ab, bb, FP16, FP32)
        acc_sig, acc_scale = mc.accumulator.exact()
        held = float(acc_sig) * 2.0**acc_scale  # pre-rounding register value
        sig, scale, lsb = masked_exact_fp_ip(ab, bb, 28, FP16)
        exact = sig * 2.0**scale
        # every (iteration, cycle) flooring loses < 1 accumulator ULP downward
        events = 9 * res.alignment_cycles
        assert exact - events * 2.0**lsb <= held <= exact + 1e-300 + abs(exact) * 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    @example(28815)
    def test_mc12_matches_wide28_within_ulps(self, seed):
        """MC-IPU(12) vs single-cycle IPU(28), both sw=28: both within the
        28-bit window of the exact value.

        With window ULP ``u = 2**(max_exp - 28)``, the exact pre-rounding
        registers (``accumulator.exact()``) agree within ``24 u``: both hold
        the exact inner product truncated to the window, the multi-cycle
        unit flooring once per (iteration, cycle) step. The FP32 outputs
        are those registers rounded to nearest even, and each rounding moves
        a value by at most half the FP32 spacing at the rounded result, so
        the outputs agree within ``24 u + np.spacing(np.float32(v))`` for
        ``v`` the larger output magnitude. One FP32 ULP can be 32 window
        ULPs (seed 28815: registers 0.25 u apart round to neighbouring FP32
        values), so the rounded outputs alone cannot meet ``24 u``.
        """
        rng = np.random.default_rng(seed)
        a = rng.normal(0, 1, 8) * np.exp2(rng.integers(-4, 5, 8))
        b = rng.normal(0, 0.05, 8)
        ab, bb = bits_of(a), bits_of(b)
        mc = InnerProductUnit(IPUConfig(n_inputs=8, adder_width=12, software_precision=28))
        wide = InnerProductUnit(IPUConfig(n_inputs=8, adder_width=28, software_precision=28))
        r_mc = mc.fp_dot(ab, bb, FP16, FP32)
        r_w = wide.fp_dot(ab, bb, FP16, FP32)
        tol = 24 * 2.0 ** (r_mc.max_exp - 28)
        held_mc, held_w = (float(sig) * 2.0**scale for sig, scale in
                           (mc.accumulator.exact(), wide.accumulator.exact()))
        assert abs(held_mc - held_w) <= tol
        value = max(abs(r_mc.value), abs(r_w.value))
        assert abs(r_mc.value - r_w.value) <= tol + float(np.spacing(np.float32(value)))

    def test_figure4_walkthrough_cycles(self):
        """Shifts (0, 8, 7, 2) on MC-IPU(14) (sp=5) -> exactly two cycles."""
        exps = [5, 1, 1.5, 4]  # plus exponent of b=1 -> product exps 10,2,3,8...
        a = [float(2.0**10), 2.0**2, 2.0**3, 2.0**8]
        b = [1.0, 1.0, 1.0, 1.0]
        ipu = InnerProductUnit(IPUConfig(n_inputs=4, adder_width=14, software_precision=28))
        res = ipu.fp_dot(bits_of(a), bits_of(b), FP16, FP32)
        assert res.alignment_cycles == 2
        assert res.cycles == 18  # 9 nibble iterations x 2 alignment cycles
        assert res.value == np.float32(2.0**10 + 4 + 8 + 256)

    def test_identical_exponents_always_one_cycle(self):
        ipu = InnerProductUnit(IPUConfig(n_inputs=8, adder_width=12, software_precision=28))
        res = ipu.fp_dot(bits_of([3.0] * 8), bits_of([1.5] * 8), FP16, FP32)
        assert res.alignment_cycles == 1
        assert res.value == 8 * 4.5

    def test_cycles_grow_with_exponent_spread(self):
        ipu = InnerProductUnit(IPUConfig(n_inputs=4, adder_width=12, software_precision=28))
        narrow = ipu.fp_dot(bits_of([4.0, 2.0, 1.0, 8.0]), bits_of([1.0] * 4), FP16, FP32)
        ipu2 = InnerProductUnit(IPUConfig(n_inputs=4, adder_width=12, software_precision=28))
        wide = ipu2.fp_dot(bits_of([2.0**10, 2.0**-8, 1.0, 8.0]), bits_of([1.0] * 4), FP16, FP32)
        assert wide.alignment_cycles > narrow.alignment_cycles

    def test_masked_products_do_not_extend_cycles(self):
        """A product needing >= sw alignment is dropped, not served."""
        ipu = InnerProductUnit(IPUConfig(n_inputs=2, adder_width=12, software_precision=16))
        a = [2.0**14, 2.0**-14]  # product exponent gap 28 >= 16 -> masked
        res = ipu.fp_dot(bits_of(a), bits_of([1.0, 1.0]), FP16, FP32)
        assert res.alignment_cycles == 1
        assert res.value == 2.0**14

"""Exactness of the Kulisch-style accumulator and its exact decode."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.formats import FP16, FP32
from repro.fp.kulisch import KulischAccumulator, decode_exact, exact_inner_product_bits

finite_fp16 = st.integers(min_value=0, max_value=(1 << 16) - 1).filter(
    lambda b: np.isfinite(np.uint16(b).view(np.float16))
)


class TestKulischExactness:
    def test_register_width_covers_paper_80_bits(self):
        acc = KulischAccumulator(FP16)
        # paper: accurate FP16 product summation needs ~80-bit adders
        assert acc.register_bits >= 80

    def test_zero_sum(self):
        acc = KulischAccumulator(FP16)
        acc.add_product(FP16.encode_value(1.0), FP16.encode_value(0.0))
        assert acc.to_float() == 0.0

    def test_catastrophic_cancellation_is_exact(self):
        """65504 * 65504 - 65504 * 65504 + tiny = tiny, exactly."""
        acc = KulischAccumulator(FP16)
        big = FP16.max_finite_bits()
        tiny = FP16.encode_value(2.0**-24)  # smallest subnormal
        one = FP16.encode_value(1.0)
        acc.add_product(big, big)
        neg_big = FP16.encode_value(-65504.0)
        acc.add_product(big, neg_big)
        acc.add_product(tiny, one)
        assert acc.to_float() == 2.0**-24

    def test_order_independence(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=32).astype(np.float16)
        bits = [int(b) for b in vals.view(np.uint16)]
        a, b = bits[:16], bits[16:]
        fwd = exact_inner_product_bits(FP16, a, b, FP32)
        rev = exact_inner_product_bits(FP16, a[::-1], b[::-1], FP32)
        assert fwd == rev

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(finite_fp16, finite_fp16), min_size=1, max_size=24))
    def test_matches_exact_rational_sum(self, pairs):
        """The Kulisch register must equal the exact dyadic-rational sum."""
        acc = KulischAccumulator(FP16)
        for x, y in pairs:
            acc.add_product(x, y)
        exact = sum(Fraction(FP16.decode_value(x)) * Fraction(FP16.decode_value(y))
                    for x, y in pairs)
        assert acc.register * Fraction(2) ** acc.scale == exact

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(finite_fp16, finite_fp16), min_size=1, max_size=8))
    def test_round_to_fp32_single_rounding(self, pairs):
        acc = KulischAccumulator(FP16)
        for x, y in pairs:
            acc.add_product(x, y)
        got = acc.round_to(FP32)
        want = FP32.round_fixed(acc.register, acc.scale)
        assert got == want

    def test_reset(self):
        acc = KulischAccumulator(FP16)
        acc.add_product(FP16.encode_value(2.0), FP16.encode_value(3.0))
        acc.reset()
        assert acc.to_float() == 0.0 and acc.count == 0


class TestDecodeExact:
    def test_value_reconstruction(self):
        for v in (1.0, -1.5, 0.099976, 65504.0, 6e-8):
            bits = FP16.encode_value(v)
            sig, scale = decode_exact(FP16, bits)
            assert sig * 2.0**scale == FP16.decode_value(bits)

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            decode_exact(FP16, FP16.inf_bits(0))

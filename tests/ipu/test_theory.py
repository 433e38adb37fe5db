"""Theorem 1 and Proposition 1 checks, including empirical validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.formats import FP16
from repro.ipu.theory import (
    MAX_FP16_PRODUCT_SHIFT,
    PRODUCT_MAGNITUDE_BITS,
    min_adder_width_for_exact,
    safe_precision,
    theorem1_bound,
)

from test_engine import emulate


class TestConstants:
    def test_max_product_shift_is_58(self):
        # exponent range of FP16 products is [-28, 30] -> 58-bit worst case
        assert MAX_FP16_PRODUCT_SHIFT == 58
        assert 2 * FP16.max_exp - 2 * FP16.min_exp == 58

    def test_product_magnitude_bits(self):
        # 15*15 = 225 needs 8 magnitude bits + sign
        assert (15 * 15).bit_length() + 1 == PRODUCT_MAGNITUDE_BITS + 0 + 0
        assert PRODUCT_MAGNITUDE_BITS == 9


class TestSafePrecision:
    @pytest.mark.parametrize("w,sp", [(12, 3), (14, 5), (16, 7), (28, 19), (38, 29)])
    def test_values(self, w, sp):
        assert safe_precision(w) == sp

    def test_paper_walkthrough_example(self):
        # Figure 4: MC-IPU(14) has sp = 5
        assert safe_precision(14) == 5

    def test_sub_product_windows_allowed_non_strict(self):
        assert safe_precision(8) == -1

    def test_strict_rejects_sub_product_windows(self):
        with pytest.raises(ValueError):
            safe_precision(9, strict=True)

    def test_inverse(self):
        for shift in (3, 7, 19):
            assert safe_precision(min_adder_width_for_exact(shift)) == shift


class TestTheorem1:
    def test_bound_grows_with_significance(self):
        # Remark 1: most significant nibble pairs dominate the error
        b00 = theorem1_bound(0, 0, 16, 0, 8)
        b22 = theorem1_bound(2, 2, 16, 0, 8)
        assert b22 == b00 * 2.0**16

    def test_bound_zero_for_single_input(self):
        assert theorem1_bound(2, 2, 16, 0, 1) == 0.0

    def test_bound_linear_in_n(self):
        assert theorem1_bound(1, 1, 12, 3, 9) == 2 * theorem1_bound(1, 1, 12, 3, 5)

    def test_bound_halves_per_precision_bit(self):
        assert theorem1_bound(1, 1, 13, 0, 4) == theorem1_bound(1, 1, 12, 0, 4) / 2

    def test_rejects_empty_product(self):
        with pytest.raises(ValueError):
            theorem1_bound(0, 0, 16, 0, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(10, 28), st.integers(0, 2**31 - 1))
    def test_empirical_error_within_summed_bound(self, precision, seed):
        """|approx - exact| <= sum of per-iteration Theorem-1 bounds."""
        rng = np.random.default_rng(seed)
        n = 8
        a = rng.laplace(0, 1, (16, n)).astype(np.float16).astype(np.float64)
        b = rng.laplace(0, 1, (16, n)).astype(np.float16).astype(np.float64)
        res = emulate(a, b, adder_width=precision)
        exact = (a * b).sum(axis=1)  # float64 exact for fp16 inputs, n small
        bound = sum(
            theorem1_bound(i, j, precision, int(me), n)
            for me in res.max_exp
            for i in range(3)
            for j in range(3)
        ) / len(res.max_exp)
        # per-sample check with per-sample max_exp. Theorem 1 bounds the
        # *masking* error; the implementation's floor truncation of served
        # products adds up to one window-LSB (2**-(w-9) of the product
        # weight) per product per iteration, plus the accumulator's own
        # 30-fraction-bit floors — both added as structural slack.
        sp = precision - 9
        for k in range(16):
            me = int(res.max_exp[k])
            per = sum(
                theorem1_bound(i, j, precision, me, n)
                for i in range(3)
                for j in range(3)
            )
            floor_slack = sum(
                n * 2.0 ** (4 * (i + j) - 22 + me - sp)
                for i in range(3)
                for j in range(3)
            )
            acc_slack = 9 * 2.0 ** (me - 30)
            assert abs(res.values[k] - exact[k]) <= per + floor_slack + acc_slack

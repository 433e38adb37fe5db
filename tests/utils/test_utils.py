"""Bit helpers, tables, RNG."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bits import (
    bit_length_signed,
    ceil_log2,
    clz,
    floor_div_pow2,
    from_twos_complement,
    get_field,
    mask,
    popcount,
    round_to_nearest_even,
    set_field,
    sign_extend,
    to_twos_complement,
)
from repro.utils.rng import as_generator, spawn
from repro.utils.table import format_cell, render_table


class TestBits:
    def test_mask(self):
        assert mask(0) == 0
        assert mask(4) == 0xF
        with pytest.raises(ValueError):
            mask(-1)

    def test_fields(self):
        v = set_field(0, 4, 4, 0xA)
        assert v == 0xA0
        assert get_field(v, 4, 4) == 0xA
        with pytest.raises(ValueError):
            set_field(0, 0, 2, 5)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 32), st.data())
    def test_twos_complement_round_trip(self, width, data):
        v = data.draw(st.integers(-(1 << (width - 1)), (1 << (width - 1)) - 1))
        assert from_twos_complement(to_twos_complement(v, width), width) == v

    def test_twos_complement_overflow(self):
        with pytest.raises(OverflowError):
            to_twos_complement(8, 4)

    def test_sign_extend(self):
        assert sign_extend(0xF, 4) == -1
        assert sign_extend(0x7, 4) == 7

    def test_bit_length_signed(self):
        assert bit_length_signed(0) == 1
        assert bit_length_signed(-1) == 1
        assert bit_length_signed(7) == 4
        assert bit_length_signed(-8) == 4
        assert bit_length_signed(8) == 5

    def test_ceil_log2(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(3) == 2
        assert ceil_log2(512) == 9
        with pytest.raises(ValueError):
            ceil_log2(0)

    def test_clz(self):
        assert clz(1, 8) == 7
        assert clz(0x80, 8) == 0

    def test_floor_div_pow2_negative(self):
        assert floor_div_pow2(-5, 1) == -3  # floor semantics
        arr = floor_div_pow2(np.array([-5, 5]), 1)
        assert arr.tolist() == [-3, 2]

    def test_rne(self):
        assert round_to_nearest_even(5, 1) == 2   # 2.5 -> 2 (even)
        assert round_to_nearest_even(7, 1) == 4   # 3.5 -> 4 (even)
        assert round_to_nearest_even(9, 2) == 2   # 2.25 -> 2
        assert round_to_nearest_even(3, -1) == 6  # negative shift = multiply

    def test_popcount(self):
        assert popcount(0b1011) == 3
        with pytest.raises(ValueError):
            popcount(-1)


class TestTable:
    def test_renders_headers_and_rows(self):
        out = render_table(["a", "bb"], [[1, 2.5], ["x", None]])
        lines = out.splitlines()
        assert "a" in lines[0] and "bb" in lines[0]
        assert "-" in lines[1]
        assert len(lines) == 4

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_format_cell(self):
        assert format_cell(None) == "-"
        assert format_cell(0.0) == "0"
        assert format_cell(1234567.0) == "1.235e+06"
        assert format_cell(1.5) == "1.5"

    def test_title(self):
        out = render_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"


class TestRng:
    def test_seed_reproducible(self):
        assert as_generator(7).integers(0, 100, 5).tolist() == \
            as_generator(7).integers(0, 100, 5).tolist()

    def test_pass_through(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_spawn_independent(self):
        children = spawn(np.random.default_rng(1), 3)
        seqs = [c.integers(0, 1000, 4).tolist() for c in children]
        assert seqs[0] != seqs[1] != seqs[2]

"""Exponent Handling Unit: stages, masking, serve schedule (Figures 4-5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipu.ehu import ExponentHandlingUnit, mc_cycle_counts, serve_cycle, serve_cycles


class TestPlan:
    def test_paper_figure4_example(self):
        """Products with exponents (10, 2, 3, 8): shifts (0, 8, 7, 2)."""
        ehu = ExponentHandlingUnit(software_precision=28)
        plan = ehu.plan([10, 2, 3, 8], [0, 0, 0, 0])
        assert plan.max_exp == 10
        assert plan.shifts == (0, 8, 7, 2)
        assert plan.masked == (False, False, False, False)

    def test_stage1_sums_operand_exponents(self):
        ehu = ExponentHandlingUnit(16)
        plan = ehu.plan([1, 2], [3, -4])
        assert plan.product_exps == (4, -2)

    def test_stage4_masks_large_shifts(self):
        ehu = ExponentHandlingUnit(software_precision=8)
        plan = ehu.plan([10, 0, 3], [0, 0, 0])
        assert plan.masked == (False, True, False)

    def test_mask_threshold_is_inclusive(self):
        ehu = ExponentHandlingUnit(software_precision=8)
        plan = ehu.plan([8, 0], [0, 0])
        assert plan.shifts == (0, 8)
        assert plan.masked == (False, True)  # shift == sw is masked

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ExponentHandlingUnit(16).plan([1, 2], [1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ExponentHandlingUnit(16).plan([], [])


class TestServeSchedule:
    def test_paper_figure4_two_cycles(self):
        """sp=5: A(0) and D(2) in cycle 0; B(8) and C(7) in cycle 1."""
        ehu = ExponentHandlingUnit(28)
        plan = ehu.plan([10, 2, 3, 8], [0, 0, 0, 0])
        groups = ehu.serve_schedule(plan, sp=5)
        assert groups == [[0, 3], [1, 2]]

    def test_shift_equal_sp_served_first_cycle(self):
        assert serve_cycle(5, 5) == 0
        assert serve_cycle(6, 5) == 1
        assert serve_cycle(10, 5) == 1
        assert serve_cycle(11, 5) == 2

    def test_empty_intermediate_cycles_still_elapse(self):
        ehu = ExponentHandlingUnit(28)
        plan = ehu.plan([20, 0], [0, 0])  # shifts 0 and 20
        groups = ehu.serve_schedule(plan, sp=5)
        assert len(groups) == 4  # cycles 0..3, cycles 1-2 empty
        assert groups[0] == [0] and groups[3] == [1]
        assert groups[1] == [] and groups[2] == []

    def test_all_masked_takes_one_cycle(self):
        ehu = ExponentHandlingUnit(software_precision=4)
        plan = ehu.plan([30, 0, 0], [0, 0, 0])
        groups = ehu.serve_schedule(plan, sp=3)
        # only the max-exponent product is unmasked, served in cycle 0
        assert groups == [[0]]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-28, 30), min_size=1, max_size=16))
    def test_every_unmasked_product_served_exactly_once(self, exps):
        ehu = ExponentHandlingUnit(software_precision=16)
        plan = ehu.plan(exps, [0] * len(exps))
        groups = ehu.serve_schedule(plan, sp=3)
        served = [k for g in groups for k in g]
        active = [k for k, m in enumerate(plan.masked) if not m]
        assert sorted(served) == sorted(active)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-28, 30), min_size=1, max_size=16))
    def test_served_cycle_covers_shift(self, exps):
        """A product served in cycle k has shift <= (k+1)*sp and > k*sp - sp."""
        ehu = ExponentHandlingUnit(software_precision=28)
        plan = ehu.plan(exps, [0] * len(exps))
        sp = 4
        for cyc, members in enumerate(ehu.serve_schedule(plan, sp)):
            for k in members:
                assert plan.shifts[k] <= (cyc + 1) * sp
                assert plan.shifts[k] - cyc * sp <= sp  # local shift is exact


class TestVectorizedCycleCounts:
    def test_matches_scalar_schedule_length(self):
        rng = np.random.default_rng(0)
        exps = rng.integers(-28, 31, size=(200, 8))
        mx = exps.max(axis=1, keepdims=True)
        shifts = mx - exps
        masked = shifts >= 16
        counts = mc_cycle_counts(shifts, masked, sp=3, adder_width=12, software_precision=16)
        ehu = ExponentHandlingUnit(16)
        for row in range(200):
            plan = ehu.plan(exps[row].tolist(), [0] * 8)
            assert counts[row] == len(ehu.serve_schedule(plan, 3))

    def test_single_cycle_when_width_meets_software_precision(self):
        shifts = np.array([[0, 25, 10]])
        masked = shifts >= 28
        counts = mc_cycle_counts(shifts, masked, sp=19, adder_width=28, software_precision=28)
        assert counts.tolist() == [1]

    def test_skip_empty_cycles_ablation_never_slower(self):
        rng = np.random.default_rng(1)
        exps = rng.integers(-28, 31, size=(500, 8))
        shifts = exps.max(axis=1, keepdims=True) - exps
        masked = shifts >= 28
        seq = mc_cycle_counts(shifts, masked, 3, 12, 28, skip_empty_cycles=False)
        skip = mc_cycle_counts(shifts, masked, 3, 12, 28, skip_empty_cycles=True)
        assert np.all(skip <= seq)
        assert np.all(skip >= 1)

    def test_skip_empty_cycles_matches_partition_loop(self):
        def loop_counts(shifts, masked, sp):
            per_prod = np.where(masked, -1, serve_cycles(shifts, sp))
            counts = np.zeros(per_prod.shape[:-1], dtype=np.int64)
            for c in range(int(per_prod.max(initial=0)) + 1):
                counts += np.any(per_prod == c, axis=-1)
            return np.maximum(counts, 1)

        rng = np.random.default_rng(2)
        for n, sp, software_precision in ((8, 3, 28), (16, 1, 16), (4, 7, 28)):
            shifts = rng.integers(0, 40, size=(300, 3, n))
            masked = shifts >= software_precision
            masked[::7] = True  # all-masked rows
            masked[1::11, :, ::2] = True
            skip = mc_cycle_counts(shifts, masked, sp, sp + 9, software_precision,
                                   skip_empty_cycles=True)
            assert skip.dtype == np.int64
            np.testing.assert_array_equal(skip, loop_counts(shifts, masked, sp))

    def test_serve_cycles_vectorized_matches_scalar(self):
        for s in range(0, 40):
            for sp in (3, 5, 7, 19):
                assert serve_cycles(np.array([s]), sp)[0] == serve_cycle(s, sp)

"""Statistical cycle simulator: accounting laws and paper-shape checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.formats import FP16
from repro.fp.vecfloat import decode_array
from repro.ipu.ehu import mc_cycle_counts
from repro.ipu.theory import safe_precision
from repro.nn.zoo import ConvShape, resnet18_convs
from repro.tile.config import BIG_TILE, SMALL_TILE
from repro.tile.simulator import (
    FP16_ITERATIONS,
    int_mode_cycles,
    simulate_layer,
    simulate_network,
    step_cycle_samples,
    worst_shift_cycles,
    worst_shift_samples,
    worst_shifts,
)
from repro.tile.workload import (
    ZERO_EXP,
    _exponent_of,
    chunks_per_output,
    layer_ip_ops,
    sample_product_exponents,
)

LAYER = ConvShape("test", c_in=64, c_out=64, kh=3, kw=3, stride=1,
                  pad_h=1, pad_w=1, h=28, w=28)


class TestWorkAccounting:
    def test_chunks_per_output(self):
        assert chunks_per_output(LAYER, 16) == -(-64 * 9 // 16) == 36
        assert chunks_per_output(LAYER, 8) == 72

    def test_layer_ip_ops(self):
        assert layer_ip_ops(LAYER, 16) == 28 * 28 * 64 * 36

    def test_macs_consistency_with_zoo(self):
        # ip_ops * n >= MACs (padding of the last chunk only adds)
        for layer in resnet18_convs():
            assert layer_ip_ops(layer, 16) * 16 >= layer.macs
            assert layer_ip_ops(layer, 16) * 16 < layer.macs * 1.4 + 16 * layer.output_pixels * layer.c_out


class TestStepCycles:
    def test_uniform_exponents_one_cycle(self):
        exps = np.zeros((100, 4, 8), dtype=np.int64)
        cycles = step_cycle_samples(exps, adder_width=12, software_precision=28)
        assert np.all(cycles == 1)

    def test_group_max_semantics(self):
        # one IPU in the group needs 2 cycles -> the step costs 2
        exps = np.zeros((1, 2, 4), dtype=np.int64)
        exps[0, 1, 0] = 5  # shift 5 > sp(12)=3 for the others in that IPU
        cycles = step_cycle_samples(exps, adder_width=12, software_precision=28)
        assert cycles[0] == 2

    def test_wide_adder_always_one_cycle(self):
        rng = np.random.default_rng(0)
        exps = rng.integers(-28, 31, size=(50, 4, 8))
        cycles = step_cycle_samples(exps, adder_width=28, software_precision=28)
        assert np.all(cycles == 1)


class TestWorstShiftReduction:
    """One worst unmasked shift per step prices every adder width."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        group=st.integers(1, 32),
        n=st.integers(4, 16),
        adder_width=st.integers(10, 38),
        software_precision=st.sampled_from((16, 28)),
    )
    def test_equals_full_cycle_counts(self, seed, group, n, adder_width,
                                      software_precision):
        rng = np.random.default_rng(seed)
        exps = rng.integers(-30, 31, size=(16, group, n))
        exps[rng.random(exps.shape) < 0.2] += ZERO_EXP  # zero operands
        exps[::5, ::2] = ZERO_EXP + rng.integers(-30, 31, size=exps[::5, ::2].shape)
        shifts = exps.max(axis=-1, keepdims=True) - exps
        masked = shifts >= software_precision
        full = mc_cycle_counts(shifts, masked, safe_precision(adder_width),
                               adder_width, software_precision)
        cost = worst_shift_cycles(worst_shifts(exps, software_precision),
                                  adder_width, software_precision)
        np.testing.assert_array_equal(cost, full.max(axis=-1))
        # per IPU too, under arbitrary masks (fully masked IPUs included)
        masked |= rng.random(masked.shape) < 0.3
        masked[1::4] = True
        worst_ipu = np.where(masked, 0, shifts).max(axis=-1)
        full = mc_cycle_counts(shifts, masked, safe_precision(adder_width),
                               adder_width, software_precision)
        np.testing.assert_array_equal(
            worst_shift_cycles(worst_ipu, adder_width, software_precision), full)

    def test_network_costed_off_shared_draw_is_identical(self):
        layers = resnet18_convs()[:6]
        for direction in ("forward", "backward"):
            tile = SMALL_TILE.with_precision(16, 4)
            worst = worst_shift_samples(layers, tile.c_unroll, 4, 28, direction,
                                        samples=128, rng=9)
            for width in (12, 16, 20, 28, 38):
                tile = SMALL_TILE.with_precision(width, 4)
                drawn = simulate_network(layers, tile, 28, direction, samples=128, rng=9)
                shared = simulate_network(layers, tile, 28, direction, samples=128,
                                          rng=9, worst=worst)
                assert shared == drawn

    def test_network_matches_per_layer_simulation(self):
        layers = resnet18_convs()[:4]
        tile = SMALL_TILE.with_precision(12, 8)
        perf = simulate_network(layers, tile, 28, "backward", samples=64, rng=3)
        seeds = np.random.default_rng(3).integers(0, 2**63 - 1, size=len(layers))
        direct = [simulate_layer(layer, tile, 28, "backward", 64,
                                 np.random.default_rng(seed))
                  for layer, seed in zip(layers, seeds)]
        assert perf.layers == direct

    def test_worst_must_fit_the_run(self):
        layers = resnet18_convs()[:3]
        tile = SMALL_TILE.with_precision(16, 4)
        worst = worst_shift_samples(layers, tile.c_unroll, 4, 28, samples=8, rng=1)
        with pytest.raises(ValueError, match="2 worst-shift vectors for 3 layers"):
            simulate_network(layers, tile, 28, samples=8, rng=1, worst=worst[:2])
        with pytest.raises(ValueError, match="skip_empty_cycles"):
            simulate_network(layers, tile, 28, samples=8, rng=1,
                             skip_empty_cycles=True, worst=worst)

    def test_wide_tile_still_advances_a_shared_generator(self):
        layers = resnet18_convs()[:3]
        rng = np.random.default_rng(4)
        simulate_network(layers, SMALL_TILE.with_precision(38), 28, samples=8, rng=rng)
        ref = np.random.default_rng(4)
        ref.integers(0, 2**63 - 1, size=len(layers))
        assert rng.integers(1 << 30) == ref.integers(1 << 30)


class TestExponentDecode:
    def test_every_finite_fp16_pattern_matches_the_wide_decode(self):
        bits = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)
        finite = (bits & 0x7C00) != 0x7C00
        values = bits[finite].view(np.float16).astype(np.float64)
        assert np.count_nonzero(values == 0) == 2  # +0 and -0
        values = np.concatenate([values, [1e-12, -1e-12, 1e6, -7e4]])
        dec = decode_array(FP16, np.clip(values, -65504.0, 65504.0))
        expected = np.where(dec.magnitude == 0, ZERO_EXP, dec.unbiased_exp)
        got = _exponent_of(values)
        assert got.dtype == np.int16
        np.testing.assert_array_equal(got, expected)

    def test_sampled_product_exponents_stay_int64(self):
        exps = sample_product_exponents(LAYER, 8, 4, 32, rng=0)
        assert exps.dtype == np.int64 and exps.shape == (32, 4, 8)


class TestLayerSimulation:
    def test_baseline_cycles_formula(self):
        perf = simulate_layer(LAYER, BIG_TILE.with_precision(38), 28, samples=64, rng=0)
        expected_steps = -(-layer_ip_ops(LAYER, 16) // (4 * 64))
        assert perf.steps == expected_steps
        assert perf.cycles == expected_steps * FP16_ITERATIONS

    def test_narrow_adder_never_faster_than_baseline(self):
        base = simulate_layer(LAYER, BIG_TILE.with_precision(38), 28, samples=128, rng=1)
        narrow = simulate_layer(LAYER, BIG_TILE.with_precision(12), 28, samples=128, rng=1)
        assert narrow.cycles >= base.cycles

    def test_precision_monotonicity(self):
        cycles = []
        for w in (12, 16, 20, 28):
            perf = simulate_layer(LAYER, SMALL_TILE.with_precision(w), 28,
                                  samples=256, rng=2)
            cycles.append(perf.cycles)
        assert all(a >= b * 0.98 for a, b in zip(cycles, cycles[1:])), cycles

    def test_clustering_reduces_cycles(self):
        uncl = simulate_layer(LAYER, SMALL_TILE.with_precision(12), 28, samples=512, rng=3)
        c1 = simulate_layer(LAYER, SMALL_TILE.with_precision(12, 1), 28, samples=512, rng=3)
        assert c1.cycles < uncl.cycles

    def test_backward_slower_than_forward(self):
        fwd = simulate_layer(LAYER, SMALL_TILE.with_precision(16), 28, "forward",
                             samples=512, rng=4)
        bwd = simulate_layer(LAYER, SMALL_TILE.with_precision(16), 28, "backward",
                             samples=512, rng=4)
        assert bwd.cycles > fwd.cycles


class TestNetworkSimulation:
    def test_network_totals(self):
        layers = resnet18_convs()[:5]
        perf = simulate_network(layers, BIG_TILE.with_precision(38), 28,
                                samples=32, rng=5, name="r18-head")
        assert perf.total_cycles == sum(l.cycles for l in perf.layers)
        assert len(perf.layers) == 5

    def test_normalization_identity(self):
        layers = resnet18_convs()[:4]
        perf = simulate_network(layers, BIG_TILE.with_precision(38), 28, samples=32, rng=6)
        assert perf.normalized_to(perf) == 1.0

    def test_paper_shape_small_beats_big_on_mc12(self):
        """§4.3: 8-input MC-IPUs outperform 16-input (fewer products ->
        fewer multi-cycle events), in normalized terms."""
        layers = resnet18_convs()[4:10]
        small = simulate_network(layers, SMALL_TILE.with_precision(12, 1), 16,
                                 samples=384, rng=7)
        small_base = simulate_network(layers, SMALL_TILE.with_precision(38), 16,
                                      samples=96, rng=7)
        big = simulate_network(layers, BIG_TILE.with_precision(12, 1), 16,
                               samples=384, rng=7)
        big_base = simulate_network(layers, BIG_TILE.with_precision(38), 16,
                                    samples=96, rng=7)
        assert small.normalized_to(small_base) < big.normalized_to(big_base)


class TestIntMode:
    def test_int4_vs_int8_cycle_ratio(self):
        layers = resnet18_convs()[:6]
        c44 = int_mode_cycles(layers, BIG_TILE, 4, 4)
        c88 = int_mode_cycles(layers, BIG_TILE, 8, 8)
        assert c88 == 4 * c44

    def test_int_mode_ignores_adder_width(self):
        layers = resnet18_convs()[:3]
        assert int_mode_cycles(layers, BIG_TILE.with_precision(12), 8, 4) == \
            int_mode_cycles(layers, BIG_TILE.with_precision(38), 8, 4)

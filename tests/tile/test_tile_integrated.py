"""Finite-buffer cluster queues on a real layer, and the batched INT-mode
inner-product kernel."""

import numpy as np
import pytest

from repro.ipu.vectorized import int_dot_batch
from repro.nn.zoo import resnet18_convs
from repro.tile.cluster import simulate_tile_queue
from repro.tile.config import SMALL_TILE
from repro.tile.simulator import FP16_ITERATIONS, simulate_layer, step_cycle_samples
from repro.tile.workload import sample_product_exponents


class TestQueuedLayer:
    """Figure 8's statistical simulator assumes decoupled clusters. On a real
    layer, the queue with depth-4 local buffers must stay close to it."""

    @pytest.fixture(scope="class")
    def queued(self):
        layer = resnet18_convs()[6]
        tile = SMALL_TILE.with_precision(12, 4)
        rng = np.random.default_rng(0)
        decoupled = simulate_layer(layer, tile, 28, samples=400, rng=rng)
        steps = min(decoupled.steps, 400)
        n_clusters = tile.ipus_per_tile // tile.effective_cluster_size
        exps = sample_product_exponents(
            layer, tile.c_unroll, tile.effective_cluster_size, steps * n_clusters,
            direction="forward", rng=rng)
        costs = step_cycle_samples(exps, tile.adder_width, 28) * FP16_ITERATIONS
        res = simulate_tile_queue(costs.reshape(steps, n_clusters), buffer_depth=4)
        # the queue runs a prefix of the layer's steps; scale it to all of them
        slowdown = res.total_cycles * decoupled.steps / steps / decoupled.cycles
        return slowdown, res

    def test_finite_buffers_never_beat_decoupled(self, queued):
        slowdown, _ = queued
        assert slowdown >= 0.97

    def test_finite_buffers_bounded_overhead(self, queued):
        """Depth-4 buffers stay within ~20% of the decoupled estimate —
        the premise behind the statistical simulator."""
        slowdown, _ = queued
        assert slowdown <= 1.25

    def test_stall_fraction_in_range(self, queued):
        _, res = queued
        assert 0.0 <= res.stall_fraction <= 1.0


class TestIntDotBatch:
    def test_matches_golden_model(self):
        from repro.ipu.ipu import InnerProductUnit, IPUConfig

        rng = np.random.default_rng(2)
        a = rng.integers(-8, 8, size=(10, 8))
        b = rng.integers(-128, 128, size=(10, 8))
        results, cycles = int_dot_batch(a, b, 4, 8)
        ipu = InnerProductUnit(IPUConfig(n_inputs=8, adder_width=28, software_precision=28))
        for i in range(10):
            ref, ref_cycles = ipu.int_dot(a[i].tolist(), b[i].tolist(), 4, 8)
            assert results[i] == ref
            assert cycles == ref_cycles

    def test_unsigned(self):
        r, c = int_dot_batch(np.array([[255, 255]]), np.array([[255, 255]]), 8, 8,
                             signed=False)
        assert r[0] == 2 * 255 * 255
        assert c == 4

    def test_range_checked(self):
        with pytest.raises(OverflowError):
            int_dot_batch(np.array([[8]]), np.array([[0]]), 4, 4)
        with pytest.raises(OverflowError):
            int_dot_batch(np.array([[-1]]), np.array([[0]]), 4, 4, signed=False)

"""Finite-buffer queue simulation of intra-tile clusters (§3.3)."""

import numpy as np
import pytest

from repro.tile.cluster import simulate_tile_queue


class TestQueueLimits:
    def test_uniform_costs_no_stall(self):
        costs = np.ones((100, 4), dtype=np.int64)
        res = simulate_tile_queue(costs, buffer_depth=2)
        assert res.broadcast_stall_cycles == 0
        assert res.total_cycles == pytest.approx(100, abs=4)

    def test_depth_one_approaches_lockstep(self):
        rng = np.random.default_rng(0)
        costs = rng.integers(1, 5, size=(300, 4))
        res = simulate_tile_queue(costs, buffer_depth=1)
        lockstep = int(costs.max(axis=1).sum())
        # depth 1 still overlaps one chunk of slack; within ~20% of lockstep
        assert res.total_cycles <= lockstep
        assert res.total_cycles >= 0.75 * lockstep

    def test_deep_buffers_approach_decoupled_bound(self):
        rng = np.random.default_rng(1)
        costs = rng.integers(1, 5, size=(300, 4))
        res = simulate_tile_queue(costs, buffer_depth=1000)
        decoupled = int(costs.sum(axis=0).max())
        assert res.total_cycles <= decoupled + costs.shape[0] + 10
        assert res.total_cycles >= decoupled

    def test_makespan_monotone_in_depth(self):
        rng = np.random.default_rng(2)
        costs = rng.integers(1, 6, size=(200, 8))
        spans = [
            simulate_tile_queue(costs, buffer_depth=d).total_cycles
            for d in (1, 2, 4, 8, 64)
        ]
        assert all(a >= b for a, b in zip(spans, spans[1:])), spans

    def test_single_cluster_is_serial(self):
        costs = np.array([[3], [2], [5]])
        res = simulate_tile_queue(costs, buffer_depth=4)
        assert res.total_cycles == 10
        assert res.per_cluster_busy.tolist() == [10]

    def test_slow_cluster_dominates(self):
        costs = np.ones((50, 3), dtype=np.int64)
        costs[:, 1] = 4
        res = simulate_tile_queue(costs, buffer_depth=8)
        assert res.total_cycles >= 50 * 4

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            simulate_tile_queue(np.ones(5), buffer_depth=1)
        with pytest.raises(ValueError):
            simulate_tile_queue(np.ones((5, 2)), buffer_depth=0)

    def test_statistical_model_bracketed_by_queue_sim(self):
        """The infinite-buffer statistical estimate lies between depth-1 and
        deep-buffer queue simulations of the same cost stream."""
        rng = np.random.default_rng(3)
        per_ipu = rng.choice([1, 1, 1, 2, 3], size=(400, 2, 4))
        cluster_costs = per_ipu.max(axis=2)  # lockstep within each cluster
        shallow = simulate_tile_queue(cluster_costs, buffer_depth=1).total_cycles
        deep = simulate_tile_queue(cluster_costs, buffer_depth=10_000).total_cycles
        statistical = cluster_costs.sum(axis=0).max()  # decoupled estimate
        assert deep <= statistical + cluster_costs.shape[0]
        assert shallow >= statistical - cluster_costs.shape[0]


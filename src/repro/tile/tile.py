"""Integrated tile model: layer scheduling over finite-buffer clusters.

Bridges the two performance models: per-step cluster costs are sampled the
same way the statistical simulator does, then *played through* the queue
model of :mod:`repro.tile.cluster`, which implements the §3.3 mechanism —
one broadcast per cycle into per-cluster local input buffers, tile-wide
stall when any buffer fills, per-cluster lockstep draining. This yields a
layer-cycle estimate that accounts for finite buffering, used to validate
(and bound) the fast decoupled estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.zoo import ConvShape
from repro.tile.cluster import ClusterSimResult, simulate_tile_queue
from repro.tile.config import TileConfig
from repro.tile.simulator import (
    FP16_ITERATIONS,
    LayerPerf,
    simulate_layer,
    step_cycle_samples,
)
from repro.tile.workload import sample_product_exponents
from repro.utils.rng import as_generator

__all__ = ["QueuedLayerPerf", "simulate_layer_queued", "buffer_depth_sweep"]


@dataclass(frozen=True)
class QueuedLayerPerf:
    """Finite-buffer estimate next to the decoupled statistical one."""

    layer: ConvShape
    buffer_depth: int
    cycles: float
    stall_fraction: float
    decoupled: LayerPerf

    @property
    def slowdown_vs_decoupled(self) -> float:
        return self.cycles / self.decoupled.cycles


def _cluster_step_costs(
    layer: ConvShape,
    tile: TileConfig,
    software_precision: int,
    direction: str,
    steps: int,
    rng,
) -> np.ndarray:
    """Sampled per-(step, cluster) cycle costs for one tile's stream.

    Each cluster's cost for a broadcast chunk is the lockstep maximum over
    its member IPUs; clusters see the same activation chunk but different
    weights, which the group axis of the sampler models.
    """
    n_clusters = max(tile.ipus_per_tile // tile.effective_cluster_size, 1)
    exps = sample_product_exponents(
        layer, tile.c_unroll, tile.effective_cluster_size, steps * n_clusters,
        direction=direction, rng=rng,
    )
    per_cluster = step_cycle_samples(exps, tile.adder_width,
                                     software_precision) * FP16_ITERATIONS
    return per_cluster.reshape(steps, n_clusters)


def simulate_layer_queued(
    layer: ConvShape,
    tile: TileConfig,
    software_precision: int,
    direction: str = "forward",
    buffer_depth: int = 4,
    max_steps: int = 2000,
    rng=None,
) -> QueuedLayerPerf:
    """Finite-buffer cycle estimate for one layer on one tile.

    The queue is simulated over up to ``max_steps`` sampled broadcast
    chunks and scaled to the layer's true step count (queue behaviour is
    stationary, so the per-step cost converges quickly).
    """
    rng = as_generator(rng)
    decoupled = simulate_layer(layer, tile, software_precision, direction,
                               samples=max_steps, rng=rng)
    true_steps = decoupled.steps
    sim_steps = min(true_steps, max_steps)
    costs = _cluster_step_costs(layer, tile, software_precision, direction,
                                sim_steps, rng)
    result: ClusterSimResult = simulate_tile_queue(costs, buffer_depth)
    scale = true_steps / sim_steps
    return QueuedLayerPerf(
        layer=layer,
        buffer_depth=buffer_depth,
        cycles=result.total_cycles * scale,
        stall_fraction=result.stall_fraction,
        decoupled=decoupled,
    )


def buffer_depth_sweep(
    layer: ConvShape,
    tile: TileConfig,
    software_precision: int,
    direction: str = "forward",
    depths: tuple[int, ...] = (1, 2, 4, 8, 16),
    rng=None,
) -> list[QueuedLayerPerf]:
    """How deep must the local input buffers be for clusters to decouple?"""
    rng = as_generator(rng)
    seeds = rng.integers(0, 2**63 - 1, size=len(depths))
    return [
        simulate_layer_queued(layer, tile, software_precision, direction,
                              buffer_depth=d, rng=np.random.default_rng(s))
        for d, s in zip(depths, seeds)
    ]

"""Cycle-accurate convolution tile simulator."""

from repro.tile.cluster import ClusterSimResult, simulate_tile_queue
from repro.tile.config import BASELINE1, BASELINE2, BIG_TILE, CLOCK_GHZ, SMALL_TILE, TileConfig
from repro.tile.simulator import (
    FP16_ITERATIONS,
    LayerPerf,
    NetworkPerf,
    expected_step_cycles,
    int_mode_cycles,
    simulate_layer,
    simulate_network,
    step_cycle_samples,
)
from repro.tile.workload import (
    chunks_per_output,
    layer_ip_ops,
    product_exponents_from_tensors,
    sample_product_exponents,
)

__all__ = [
    "ClusterSimResult", "simulate_tile_queue",
    "BASELINE1", "BASELINE2", "BIG_TILE", "CLOCK_GHZ", "SMALL_TILE", "TileConfig",
    "FP16_ITERATIONS", "LayerPerf", "NetworkPerf", "expected_step_cycles",
    "int_mode_cycles", "simulate_layer", "simulate_network", "step_cycle_samples",
    "chunks_per_output", "layer_ip_ops",
    "product_exponents_from_tensors", "sample_product_exponents",
]

from repro.tile.tile import QueuedLayerPerf, buffer_depth_sweep, simulate_layer_queued

__all__ += ["QueuedLayerPerf", "buffer_depth_sweep", "simulate_layer_queued"]

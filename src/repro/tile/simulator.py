"""Statistical cycle-accurate performance model of the convolution tile.

Execution model (paper §3.2-3.3, §4.1):

- An FP16 x FP16 inner product is nine nibble iterations. On a baseline
  (38-bit) IPU each iteration is one cycle. On an MC-IPU(w) each iteration
  takes ``ceil(min(max_shift, sw) / sp)`` cycles, where ``max_shift`` is the
  worst unmasked alignment among the IPU's n products.
- IPUs in a cluster run in lockstep: a step costs the *maximum* cycles over
  the cluster members (they share the broadcast input).
- Clusters run independently (local input/output buffers); with adequate
  buffering a layer's time is governed by the mean per-step cost, and the
  tile processes ``n_tiles * ipus_per_tile`` inner products per step.

The per-layer expected step cost is estimated from sampled product
exponents; :mod:`repro.tile.cluster` provides the finite-buffer queue
simulation used to validate the infinite-buffer assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ipu.ehu import mc_cycle_counts
from repro.ipu.ipu import SOFTWARE_PRECISION
from repro.ipu.theory import safe_precision
from repro.nn.zoo import ConvShape
from repro.tile.config import TileConfig
from repro.tile.workload import layer_ip_ops, sample_product_exponents
from repro.utils.rng import as_generator

__all__ = [
    "FP16_ITERATIONS",
    "LayerPerf",
    "NetworkPerf",
    "step_cycle_samples",
    "expected_step_cycles",
    "simulate_layer",
    "simulate_network",
]

FP16_ITERATIONS = 9  # nibble iterations per FP16 x FP16 inner product


@dataclass(frozen=True)
class LayerPerf:
    layer: ConvShape
    ip_ops: int
    steps: int
    cycles_per_step: float
    cycles: float

    @property
    def cycles_per_iteration(self) -> float:
        return self.cycles_per_step / FP16_ITERATIONS


@dataclass(frozen=True)
class NetworkPerf:
    name: str
    layers: list[LayerPerf]

    @property
    def total_cycles(self) -> float:
        return sum(l.cycles for l in self.layers)

    def normalized_to(self, baseline: "NetworkPerf") -> float:
        return self.total_cycles / baseline.total_cycles


def step_cycle_samples(
    product_exps: np.ndarray,
    adder_width: int,
    software_precision: int,
    skip_empty_cycles: bool = False,
) -> np.ndarray:
    """Per-step cycles for one nibble iteration, shape ``(samples,)``.

    ``product_exps`` has shape ``(samples, group, n)``: per-IPU alignment
    cycles are computed from the exponent spread, then the lockstep maximum
    is taken over the group axis.
    """
    exps = np.asarray(product_exps, dtype=np.int64)
    max_exp = exps.max(axis=-1, keepdims=True)
    shifts = max_exp - exps
    masked = shifts >= software_precision
    per_ipu = mc_cycle_counts(
        shifts, masked, safe_precision(adder_width), adder_width,
        software_precision, skip_empty_cycles=skip_empty_cycles,
    )
    return per_ipu.max(axis=-1)


def expected_step_cycles(
    layer: ConvShape,
    tile: TileConfig,
    software_precision: int,
    direction: str = "forward",
    samples: int = 2048,
    rng=None,
    skip_empty_cycles: bool = False,
    product_exps: np.ndarray | None = None,
) -> float:
    """Expected cycles per nibble iteration step for this layer/tile.

    ``product_exps`` supplies pre-sampled exponents (``(samples, group, n)``,
    e.g. from real tensors via
    :func:`repro.tile.workload.product_exponents_from_tensors`) so several
    tile configurations can be costed off one sampling pass.
    """
    if product_exps is None:
        rng = as_generator(rng)
        product_exps = sample_product_exponents(
            layer, tile.c_unroll, tile.effective_cluster_size, samples,
            direction=direction, rng=rng,
        )
    per_step = step_cycle_samples(
        product_exps, tile.adder_width, software_precision, skip_empty_cycles
    )
    return float(per_step.mean())


def simulate_layer(
    layer: ConvShape,
    tile: TileConfig,
    software_precision: int,
    direction: str = "forward",
    samples: int = 2048,
    rng=None,
    skip_empty_cycles: bool = False,
    product_exps: np.ndarray | None = None,
) -> LayerPerf:
    """Cycle estimate for one conv layer in FP16 mode on this tile config."""
    ip_ops = layer_ip_ops(layer, tile.c_unroll)
    parallel = tile.n_tiles * tile.ipus_per_tile
    steps = -(-ip_ops // parallel)
    per_iter = expected_step_cycles(
        layer, tile, software_precision, direction, samples, rng, skip_empty_cycles,
        product_exps,
    )
    cycles = steps * FP16_ITERATIONS * per_iter
    return LayerPerf(
        layer=layer, ip_ops=ip_ops, steps=steps,
        cycles_per_step=FP16_ITERATIONS * per_iter, cycles=cycles,
    )


def simulate_network(
    layers: list[ConvShape],
    tile: TileConfig,
    software_precision: int,
    direction: str = "forward",
    samples: int = 1024,
    rng=None,
    name: str = "",
    skip_empty_cycles: bool = False,
) -> NetworkPerf:
    """Simulate every conv layer of a network; per-layer seeds are derived
    deterministically so results are reproducible and layer-order invariant."""
    rng = as_generator(rng)
    seeds = rng.integers(0, 2**63 - 1, size=len(layers))
    perfs = [
        simulate_layer(
            layer, tile, software_precision, direction, samples,
            np.random.default_rng(seed), skip_empty_cycles,
        )
        for layer, seed in zip(layers, seeds)
    ]
    return NetworkPerf(name=name, layers=perfs)


def int_mode_cycles(layers: list[ConvShape], tile: TileConfig, a_bits: int, b_bits: int) -> float:
    """INT-mode cycle count: nibble iterations only, no alignment stalls."""
    from repro.nibble.schedule import iteration_count

    iters = iteration_count(a_bits, b_bits)
    parallel = tile.n_tiles * tile.ipus_per_tile
    return sum(-(-layer_ip_ops(l, tile.c_unroll) // parallel) * iters for l in layers)

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
exponents. The finite-buffer queue of :mod:`repro.tile.cluster`, fed the
same sampled step costs, checks the adequate-buffering assumption in the
test suite.

Sample once, cost many. A product's serve cycle ``ceil(s / sp) - 1`` never
decreases as its shift ``s`` grows, so an IPU's cycle count is the serve
cycle of its *worst unmasked* shift, and the cluster's lockstep maximum is
the serve cycle of the worst unmasked shift over the whole step (masked
shifts count as 0, which keeps an all-masked IPU at one cycle). One
``(samples,)`` vector of worst shifts per layer therefore prices every
adder width exactly: :func:`worst_shift_samples` draws it (no adder width
involved) and :func:`worst_shift_cycles` costs it for one width. Only the
``skip_empty_cycles`` ablation, which counts occupied partitions, still
needs the full ``(samples, group, n)`` exponents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ipu.ehu import mc_cycle_counts, serve_cycles
from repro.ipu.ipu import SOFTWARE_PRECISION
from repro.ipu.theory import safe_precision
from repro.nn.zoo import ConvShape
from repro.tile.config import TileConfig
from repro.tile.workload import layer_ip_ops, sample_product_exponents
from repro.utils.rng import as_generator, spawn

__all__ = [
    "FP16_ITERATIONS",
    "LayerPerf",
    "NetworkPerf",
    "worst_shifts",
    "worst_shift_cycles",
    "worst_shift_samples",
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


def worst_shifts(product_exps: np.ndarray, software_precision: int) -> np.ndarray:
    """Worst unmasked alignment shift per step, shape ``(samples,)``.

    ``product_exps`` has shape ``(samples, group, n)``. Shifts are taken
    per IPU (against its own maximum exponent); masked shifts (``>=
    software_precision``) count as 0; the maximum runs over the whole
    lockstep group.
    """
    exps = np.asarray(product_exps)
    shifts = exps.max(axis=-1, keepdims=True) - exps
    shifts[shifts >= software_precision] = 0
    return shifts.max(axis=(-2, -1))


def worst_shift_cycles(
    worst: np.ndarray, adder_width: int, software_precision: int
) -> np.ndarray:
    """Per-step cycles for one nibble iteration off worst shifts.

    Equal, element by element, to the lockstep maximum of
    :func:`repro.ipu.ehu.mc_cycle_counts` over the products ``worst`` was
    reduced from (see the module docstring).
    """
    if adder_width >= software_precision:
        return np.ones(np.shape(worst), dtype=np.int64)
    return serve_cycles(worst, safe_precision(adder_width)) + 1


def worst_shift_samples(
    layers: list[ConvShape],
    c_unroll: int,
    group: int,
    software_precision: int,
    direction: str = "forward",
    samples: int = 1024,
    rng=None,
) -> tuple[np.ndarray, ...]:
    """Per-layer worst-shift vectors for :func:`simulate_network`.

    Nothing here depends on the adder width, so one draw costs every width
    of a ``(c_unroll, group)`` geometry. Per-layer generators come from one
    :func:`repro.utils.rng.spawn` of ``rng``, so a draw equals the one
    :func:`simulate_network` makes for the same seed.
    """
    return tuple(
        worst_shifts(
            sample_product_exponents(layer, c_unroll, group, samples,
                                     direction=direction, rng=layer_rng),
            software_precision,
        )
        for layer, layer_rng in zip(layers, spawn(as_generator(rng), len(layers)))
    )


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
    if not skip_empty_cycles:
        return worst_shift_cycles(worst_shifts(product_exps, software_precision),
                                  adder_width, software_precision)
    exps = np.asarray(product_exps, dtype=np.int64)
    shifts = exps.max(axis=-1, keepdims=True) - exps
    masked = shifts >= software_precision
    per_ipu = mc_cycle_counts(
        shifts, masked, safe_precision(adder_width), adder_width,
        software_precision, skip_empty_cycles=True,
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


def _layer_perf(layer: ConvShape, tile: TileConfig, per_iter: float) -> LayerPerf:
    ip_ops = layer_ip_ops(layer, tile.c_unroll)
    parallel = tile.n_tiles * tile.ipus_per_tile
    steps = -(-ip_ops // parallel)
    return LayerPerf(
        layer=layer, ip_ops=ip_ops, steps=steps,
        cycles_per_step=FP16_ITERATIONS * per_iter,
        cycles=steps * FP16_ITERATIONS * per_iter,
    )


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
    per_iter = expected_step_cycles(
        layer, tile, software_precision, direction, samples, rng, skip_empty_cycles,
        product_exps,
    )
    return _layer_perf(layer, tile, per_iter)


def simulate_network(
    layers: list[ConvShape],
    tile: TileConfig,
    software_precision: int,
    direction: str = "forward",
    samples: int = 1024,
    rng=None,
    name: str = "",
    skip_empty_cycles: bool = False,
    worst: tuple[np.ndarray, ...] | None = None,
) -> NetworkPerf:
    """Simulate every conv layer of a network; per-layer seeds are derived
    deterministically so results are reproducible and layer-order invariant.

    ``worst`` supplies pre-drawn per-layer worst shifts (from
    :func:`worst_shift_samples` with this tile's ``c_unroll`` and cluster
    size), so several adder widths can be costed off one draw.
    """
    rng = as_generator(rng)
    if skip_empty_cycles:
        if worst is not None:
            raise ValueError("skip_empty_cycles needs full product exponents, "
                             "not worst shifts")
        perfs = [
            simulate_layer(layer, tile, software_precision, direction, samples,
                           layer_rng, skip_empty_cycles=True)
            for layer, layer_rng in zip(layers, spawn(rng, len(layers)))
        ]
        return NetworkPerf(name=name, layers=perfs)
    if worst is None:
        worst = worst_shift_samples(
            layers, tile.c_unroll, tile.effective_cluster_size,
            software_precision, direction, samples, rng,
        )
    elif len(worst) != len(layers):
        raise ValueError(f"got {len(worst)} worst-shift vectors for "
                         f"{len(layers)} layers")
    return NetworkPerf(name=name, layers=[
        _layer_perf(layer, tile, float(
            worst_shift_cycles(w, tile.adder_width, software_precision).mean()))
        for layer, w in zip(layers, worst)
    ])


def int_mode_cycles(layers: list[ConvShape], tile: TileConfig, a_bits: int, b_bits: int) -> float:
    """INT-mode cycle count: nibble iterations only, no alignment stalls."""
    from repro.nibble.schedule import iteration_count

    iters = iteration_count(a_bits, b_bits)
    parallel = tile.n_tiles * tile.ipus_per_tile
    return sum(-(-layer_ip_ops(l, tile.c_unroll) // parallel) * iters for l in layers)

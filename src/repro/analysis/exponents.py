"""Exponent-difference (alignment-size) distributions — Figure 9.

The histogram of ``max_exp - product_exp`` over inner-product chunks
explains every performance result in the paper: forward distributions
cluster near zero (~1% beyond 8 bits), so small safe precisions rarely
multi-cycle; backward distributions are wide, so they multi-cycle heavily.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.zoo import ConvShape
from repro.tile.workload import sample_product_exponents
from repro.utils.rng import as_generator

__all__ = ["ShiftHistogram", "alignment_histogram", "histogram_from_model"]


@dataclass(frozen=True)
class ShiftHistogram:
    """Normalized histogram of alignment sizes (zero lanes excluded)."""

    edges: np.ndarray       # bin lower edges, last bin is overflow
    density: np.ndarray     # fractions, sums to 1

    def fraction_above(self, threshold: int) -> float:
        return float(self.density[self.edges > threshold].sum())

    def median(self) -> float:
        cum = np.cumsum(self.density)
        return float(self.edges[np.searchsorted(cum, 0.5)])

    def rows(self) -> list[tuple[int, float]]:
        return [(int(e), float(d)) for e, d in zip(self.edges, self.density)]


def _histogram(shifts: np.ndarray, max_bin: int = 32) -> ShiftHistogram:
    shifts = shifts[shifts < 500]  # drop zero-operand sentinel lanes
    clipped = np.minimum(shifts, max_bin)
    counts = np.bincount(clipped, minlength=max_bin + 1).astype(np.float64)
    total = counts.sum()
    if total == 0:
        raise ValueError("no live products to histogram")
    return ShiftHistogram(edges=np.arange(max_bin + 1), density=counts / total)


def alignment_histogram(
    layers: list[ConvShape],
    n_inputs: int,
    direction: str,
    samples_per_layer: int = 2000,
    rng=None,
    max_bin: int = 32,
) -> ShiftHistogram:
    """Aggregate alignment-size histogram over a network's conv layers."""
    rng = as_generator(rng)
    all_shifts = []
    for layer in layers:
        exps = sample_product_exponents(
            layer, n_inputs, 1, samples_per_layer, direction=direction, rng=rng
        )
        mx = exps.max(axis=-1, keepdims=True)
        all_shifts.append((mx - exps).ravel())
    return _histogram(np.concatenate(all_shifts), max_bin)


def histogram_from_model(
    model, images: np.ndarray, labels: np.ndarray, n_inputs: int = 8,
    samples: int = 4000, rng=None, direction: str = "forward", max_bin: int = 32,
) -> ShiftHistogram:
    """Alignment histogram from *real* tensors of a trained NumPy model.

    Forward uses (activation, weight) chunks; backward uses the captured
    error tensors flowing into each conv against its weights.
    """
    from repro.nn.training import capture_backward_tensors
    from repro.tile.workload import product_exponents_from_tensors

    rng = as_generator(rng)
    captured = capture_backward_tensors(model, images, labels)
    all_shifts = []
    per = -(-samples // len(captured))
    for entry in captured:
        source = entry["input"] if direction == "forward" else entry["grad_output"]
        weights = entry["weight"]
        if direction == "backward":
            # backward conv correlates grad_output with rotated weights; the
            # exponent statistics only need matching chunk lengths
            k, c, kh, kw = weights.shape
            weights = weights.transpose(1, 0, 2, 3).reshape(c, k, kh, kw)
        exps = product_exponents_from_tensors(
            source, weights, 1, 1, n_inputs, 1, per, rng=rng
        )
        mx = exps.max(axis=-1, keepdims=True)
        all_shifts.append((mx - exps).ravel())
    return _histogram(np.concatenate(all_shifts), max_bin)

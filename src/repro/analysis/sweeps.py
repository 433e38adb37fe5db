"""Precision sweeps reproducing Figure 3 and the §3.1 conclusions.

For each IPU precision and input source, emulate a batch of FP16 inner
products and measure the three error metrics against the FP32-CPU
reference — once for FP16 accumulators (paper's top row) and once for FP32
accumulators (bottom row).

Input sources cover the paper's five: Laplace / Normal / uniform synthetic
vectors plus convolution-layer tensors sampled from (our) trained ResNet-
style and plain CNNs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.error import ErrorStats
from repro.nn.sampling import sample_operand_batch

__all__ = ["SweepPoint", "PrecisionSweep", "model_tensor_operands",
           "DEFAULT_PRECISIONS", "recommended_min_precision"]

DEFAULT_PRECISIONS = (8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 34, 38)


@dataclass(frozen=True)
class SweepPoint:
    source: str
    acc_fmt: str
    precision: int
    stats: ErrorStats


@dataclass
class PrecisionSweep:
    points: list[SweepPoint] = field(default_factory=list)

    def series(self, source: str, acc_fmt: str, metric: str) -> list[tuple[int, float]]:
        out = []
        for p in self.points:
            if p.source == source and p.acc_fmt == acc_fmt:
                out.append((p.precision, getattr(p.stats, metric)))
        return sorted(out)

    def sources(self) -> list[str]:
        seen: list[str] = []
        for p in self.points:
            if p.source not in seen:
                seen.append(p.source)
        return seen


def model_tensor_operands(batch: int, n: int, rng, style: str = "resnet") -> tuple[np.ndarray, np.ndarray]:
    """Operands sampled from a (small, freshly trained) conv model's tensors.

    Stand-in for the paper's 5% ResNet-18/50 samples: we train a small
    model on synthetic data and draw real (activation, weight) inner-product
    chunks from its conv layers. Training is cached per style+seed.
    """
    from repro.analysis._model_cache import trained_conv_chunks

    return trained_conv_chunks(batch, n, rng, style)


def _operands_for(source: str, batch: int, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    from repro.nn.sampling import (
        MIXTURE_PREFIX,
        TENSOR_DUMP_PREFIX,
        sample_mixture_operands,
        tensor_dump_operands,
    )

    if source in ("laplace", "normal", "uniform"):
        return sample_operand_batch(source, batch, n, rng)
    if source == "resnet-tensors":
        return model_tensor_operands(batch, n, rng, "resnet")
    if source == "convnet-tensors":
        return model_tensor_operands(batch, n, rng, "plain")
    if source.startswith(MIXTURE_PREFIX):
        return sample_mixture_operands(source, batch, n, rng)
    if source.startswith(TENSOR_DUMP_PREFIX):
        return tensor_dump_operands(source, batch, n, rng)
    raise ValueError(f"unknown source {source!r}")


def recommended_min_precision(sweep: PrecisionSweep, acc_fmt: str, tol_bits: float = 0.5) -> int:
    """Smallest precision whose *worst-source* median contaminated bits stay
    within ``tol_bits`` — the §3.1 decision rule (16 for FP16, ~26-27 FP32)."""
    precisions = sorted({p.precision for p in sweep.points if p.acc_fmt == acc_fmt})
    for w in precisions:
        worst = max(
            p.stats.median_contaminated_bits
            for p in sweep.points
            if p.acc_fmt == acc_fmt and p.precision == w
        )
        if worst <= tol_bits:
            return w
    return precisions[-1]

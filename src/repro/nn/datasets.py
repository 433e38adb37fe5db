"""Synthetic image-classification datasets.

Substitute for ImageNet (unavailable offline): small multi-class problems
whose classes are distinguishable by spatial structure, so trained conv nets
develop non-trivial filters and realistic activation/gradient distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["Dataset", "make_pattern_dataset"]


@dataclass
class Dataset:
    images: np.ndarray  # (N, C, H, W) float32
    labels: np.ndarray  # (N,) int64

    def __len__(self) -> int:
        return len(self.labels)

    def batches(self, batch_size: int, rng=None):
        """Yield shuffled (images, labels) minibatches."""
        rng = as_generator(rng)
        order = rng.permutation(len(self))
        for start in range(0, len(self), batch_size):
            idx = order[start : start + batch_size]
            yield self.images[idx], self.labels[idx]

    def split(self, fraction: float = 0.8) -> tuple["Dataset", "Dataset"]:
        cut = int(len(self) * fraction)
        return (
            Dataset(self.images[:cut], self.labels[:cut]),
            Dataset(self.images[cut:], self.labels[cut:]),
        )


def make_pattern_dataset(
    n_samples: int = 1024,
    image_size: int = 16,
    n_classes: int = 4,
    channels: int = 3,
    noise: float = 0.35,
    rng=None,
) -> Dataset:
    """Classes defined by oriented gratings of class-specific frequency/angle.

    Gratings force the network to learn oriented edge filters — the same
    qualitative structure as early conv layers of ImageNet models, which is
    what the exponent-distribution experiments care about.
    """
    rng = as_generator(rng)
    yy, xx = np.mgrid[0:image_size, 0:image_size].astype(np.float32) / image_size
    images = np.empty((n_samples, channels, image_size, image_size), dtype=np.float32)
    labels = rng.integers(0, n_classes, size=n_samples)
    for i, cls in enumerate(labels):
        angle = np.pi * cls / n_classes
        freq = 2.0 + 2.0 * cls
        phase = rng.uniform(0, 2 * np.pi)
        base = np.sin(2 * np.pi * freq * (xx * np.cos(angle) + yy * np.sin(angle)) + phase)
        for ch in range(channels):
            images[i, ch] = base * (0.5 + 0.5 * ch / max(channels - 1, 1))
    images += noise * rng.standard_normal(images.shape).astype(np.float32)
    images = (images - images.mean()) / (images.std() + 1e-8)
    return Dataset(images.astype(np.float32), labels.astype(np.int64))


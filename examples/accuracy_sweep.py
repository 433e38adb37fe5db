"""Train a small CNN, then evaluate it with every convolution computed
through the emulated approximate FP-IP at several IPU precisions.

Reproduces the §3.1 protocol (the paper runs ResNet-18/50 on ImageNet; we
run a small conv net on synthetic data — see DESIGN.md's substitution
table). Expected outcome, as in the paper: precision >= 12 matches the
float32 reference on every batch; 8-bit drifts on individual batches.

Usage: python examples/accuracy_sweep.py [--quick]
"""

import sys

import numpy as np

from repro.analysis.accuracy import accuracy_vs_precision
from repro.api import EmulationSession
from repro.nn.datasets import make_pattern_dataset
from repro.nn.models import tiny_convnet
from repro.nn.training import train
from repro.utils.table import render_table


def main(quick: bool = False) -> None:
    rng = np.random.default_rng(7)
    print("training a small CNN on synthetic oriented-grating images...")
    dataset = make_pattern_dataset(n_samples=512 if quick else 768, noise=3.2, rng=rng)
    model = tiny_convnet(rng=rng)
    result = train(model, dataset, epochs=4 if quick else 6, rng=rng)
    print(f"float32 training done: test accuracy {result.test_accuracy:.3f}")

    n_eval = 32 if quick else 96
    images = dataset.images[-n_eval:]
    labels = dataset.labels[-n_eval:]
    precisions = (8, 12) if quick else (8, 10, 12, 16, 28)
    print(f"evaluating {n_eval} images through the emulated IPU "
          f"at precisions {precisions} (FP32 accumulation)...")
    # one session spans every precision and batch: conv weights are decoded
    # once per layer and reused by every later batch and precision
    with EmulationSession() as session:
        points = accuracy_vs_precision(model, images, labels, precisions,
                                       batch_size=16, session=session)
        st = session.stats
    print(f"(conv weight plans: {st.plan_misses} decodes, {st.plan_hits} reuses)")

    ref = next(p for p in points if p.precision is None)
    rows = []
    for p in points:
        rows.append([
            "fp32 (reference)" if p.precision is None else f"IPU({p.precision})",
            f"{p.accuracy:.4f}",
            f"{p.accuracy - ref.accuracy:+.4f}",
            f"{max(abs(a - b) for a, b in zip(p.per_batch, ref.per_batch)):.4f}",
        ])
    print(render_table(
        ["arithmetic", "top-1", "delta", "max per-batch deviation"], rows,
        title="Accuracy vs IPU precision",
    ))
    print("\npaper §3.1: precision >= 12 matches FP32 on all batches; 8-bit",
          "matches on average but fluctuates per batch.")


if __name__ == "__main__":
    main(quick="--quick" in sys.argv)

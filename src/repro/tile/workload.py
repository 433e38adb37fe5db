"""Workload sampling: turning conv layers into product-exponent batches.

The cycle cost of an FP16 inner product on an MC-IPU depends only on the
*exponent spread* of its n products (EHU stages 1-3). Simulating every
inner product of an ImageNet-scale layer is wasteful; instead — like the
paper, which samples 5% of tensor values — we sample inner-product chunks
and estimate per-layer expected cycles statistically.

Each sample models one tile *step*: a broadcast activation chunk shared by
``group`` IPUs that each hold different weights (the lockstep/stall domain
is a cluster). Exponents come either from synthesized tensors matching the
layer's value distribution family or from real captured tensors of the
trained NumPy models.
"""

from __future__ import annotations

import numpy as np

from repro.fp.formats import FP16
from repro.fp.vecfloat import decode_fields
from repro.nn.sampling import (
    BACKWARD_ERROR,
    BACKWARD_WEIGHT,
    FORWARD_ACTIVATION,
    FORWARD_WEIGHT,
    TensorModel,
)
from repro.nn.zoo import ConvShape
from repro.utils.rng import as_generator

__all__ = [
    "sample_product_exponents",
    "product_exponents_from_tensors",
    "layer_ip_ops",
    "chunks_per_output",
]


def chunks_per_output(layer: ConvShape, n_inputs: int) -> int:
    """Inner-product ops (IPU invocations) per output pixel."""
    return -(-layer.dot_length // n_inputs)


def layer_ip_ops(layer: ConvShape, n_inputs: int) -> int:
    """Total IPU inner-product ops for one forward pass of the layer."""
    return layer.output_pixels * layer.c_out * chunks_per_output(layer, n_inputs)


# Sentinel product exponent for zero operands: a zero product contributes
# nothing and its EHU lane is masked immediately (zero-detect on the
# magnitude), so it never extends the alignment schedule nor wins the max.
ZERO_EXP = -1000


def _exponent_of(values: np.ndarray) -> np.ndarray:
    """FP16 unbiased exponents (int16) with zero operands marked by ``ZERO_EXP``."""
    clipped = np.clip(values, -65504.0, 65504.0)
    _, exp, magnitude = decode_fields(FP16, clipped)
    exp[magnitude == 0] = ZERO_EXP
    return exp


def sample_product_exponents(
    layer: ConvShape,
    n_inputs: int,
    group: int,
    samples: int,
    direction: str = "forward",
    rng=None,
    activation_model: TensorModel | None = None,
    weight_model: TensorModel | None = None,
) -> np.ndarray:
    """Sampled product exponents of shape ``(samples, group, n_inputs)``.

    Activation chunks are shared across the ``group`` axis (broadcast
    semantics); weights differ per group member. ``direction`` picks the
    calibrated forward or backward tensor models unless explicit models are
    given.
    """
    rng = as_generator(rng)
    if activation_model is None or weight_model is None:
        if direction == "forward":
            activation_model = activation_model or FORWARD_ACTIVATION
            weight_model = weight_model or FORWARD_WEIGHT
        elif direction == "backward":
            activation_model = activation_model or BACKWARD_ERROR
            weight_model = weight_model or BACKWARD_WEIGHT
        else:
            raise ValueError("direction must be 'forward' or 'backward'")
    acts = activation_model.sample((samples, n_inputs), rng)
    wts = weight_model.sample((samples, group, n_inputs), rng)
    ea = _exponent_of(acts)[:, None, :]
    ew = _exponent_of(wts)
    return (ea + ew).astype(np.int64)


def product_exponents_from_tensors(
    inputs: np.ndarray,
    weights: np.ndarray,
    layer_stride: int,
    layer_padding: int,
    n_inputs: int,
    group: int,
    samples: int,
    rng=None,
) -> np.ndarray:
    """Product exponents sampled from *real* captured tensors.

    ``inputs`` is an NCHW activation (or backward error) tensor, ``weights``
    a (K, C, kh, kw) filter tensor; inner-product chunks are drawn exactly
    as the im2col tiling would slice them; only the sampled chunks are
    decoded.
    """
    from repro.nn.functional import im2col

    rng = as_generator(rng)
    k, c, kh, kw = weights.shape
    cols = im2col(inputs, kh, kw, layer_stride, layer_padding)  # (N, D, P)
    n_img, d, p = cols.shape
    wmat = weights.reshape(k, d)
    chunks = -(-d // n_inputs)
    pad = chunks * n_inputs - d

    img_idx = rng.integers(0, n_img, size=samples)
    pix_idx = rng.integers(0, p, size=samples)
    chunk_idx = rng.integers(0, chunks, size=samples)
    group_k = rng.integers(0, k, size=(samples, group))

    if pad:
        cols = np.pad(cols, ((0, 0), (0, pad), (0, 0)))
        wmat = np.pad(wmat, ((0, 0), (0, pad)))
    col_chunks = cols.reshape(n_img, chunks, n_inputs, p)
    w_chunks = wmat.reshape(k, chunks, n_inputs)

    a = col_chunks[img_idx, chunk_idx, :, pix_idx]                # (S, n)
    w = w_chunks[group_k, chunk_idx[:, None], :]                  # (S, g, n)
    ea = _exponent_of(a)[:, None, :]
    ew = _exponent_of(w)
    return (ea + ew).astype(np.int64)

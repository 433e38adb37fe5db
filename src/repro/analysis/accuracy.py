"""End-to-end accuracy under emulated IPU arithmetic (paper §3.1, last part).

The paper evaluates ResNet-18/50 Top-1 on ImageNet with conv layers computed
through the approximate FP-IP at several IPU precisions, finding precision
>= 12 indistinguishable from FP32 and 8-bit fluctuating by batch. We run the
same protocol on small trained models: every convolution is computed
bit-accurately through the vectorized IPU emulation; everything else stays
float32.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.fp.formats import FP16, FP32, FPFormat
from repro.ipu.engine import KernelPoint, PackedOperands, pack_operands
from repro.nn.functional import conv_output_size, im2col
from repro.nn.layers import Conv2d, Residual, Sequential

__all__ = ["emulated_conv2d", "emulated_forward", "AccuracyPoint", "accuracy_vs_precision",
           "weight_plan"]

_N_IPU = 16


def _session_or_transient(session):
    """Context manager yielding ``session`` itself, or a serial
    :class:`repro.api.EmulationSession` that lives for the duration of the
    call."""
    if session is not None:
        return nullcontext(session)
    from repro.api.session import EmulationSession

    return EmulationSession()


def weight_plan(weight: np.ndarray, n_ipu: int = _N_IPU) -> PackedOperands:
    """Packed plan of a conv weight, reshaped to ``(K, chunks, n_ipu)``.

    :meth:`repro.api.EmulationSession.weight_plan` caches it per weight
    array, so one decomposition serves every batch and IPU precision.
    """
    k = weight.shape[0]
    wmat = weight.reshape(k, -1)
    d = wmat.shape[1]
    chunks = -(-d // n_ipu)
    pad = chunks * n_ipu - d
    if pad:
        wmat = np.pad(wmat, ((0, 0), (0, pad)))
    return pack_operands(wmat.reshape(k, chunks, n_ipu), FP16)


def emulated_conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
    adder_width: int,
    acc_fmt: FPFormat = FP32,
    session=None,
) -> np.ndarray:
    """Convolution computed through the emulated approximate FP-IP.

    Operands are cast to FP16; each n=16 chunk runs one emulated inner
    product (single-cycle IPU(w) semantics, the Figure-2/Figure-3
    convention); chunk partials accumulate exactly and round once into the
    accumulator format, modelling the non-normalized wide accumulator.

    The activation tensor is packed once and iterated against one weight
    channel's plan at a time, so peak temporary memory is O(B*n) — the seed
    materialized a K-fold broadcast of both operands before emulating.

    ``session`` (an :class:`repro.api.EmulationSession`) keeps the weight
    plan across calls and runs the per-channel kernels through its execution
    backend, so large batches split across its thread pool
    (bit-identical results either way). Without one, a transient serial
    session serves the call.
    """
    n_ipu = _N_IPU
    k, c, kh, kw = weight.shape
    nimg = x.shape[0]
    ho = conv_output_size(x.shape[2], kh, stride, padding)
    wo = conv_output_size(x.shape[3], kw, stride, padding)
    cols = im2col(x, kh, kw, stride, padding, layout="npd")   # (N, P, D)
    p, d = cols.shape[1], cols.shape[2]
    chunks = -(-d // n_ipu)
    pad = chunks * n_ipu - d
    if pad:
        cols = np.pad(cols, ((0, 0), (0, 0), (0, pad)))
    chunked = cols.reshape(nimg * p, chunks, n_ipu)

    out = np.empty((k, nimg * p))
    point = KernelPoint(adder_width, acc_fmt=acc_fmt)
    with _session_or_transient(session) as session:
        acts = session.pack(chunked, FP16)
        wplan = session.weight_plan(weight, n_ipu)            # (K, chunks, n_ipu)
        for ch in range(k):
            res = session.run_kernels(acts, wplan[ch], [point])[0]
            out[ch] = res.values.sum(axis=1)                  # exact chunk partials
    out_t = out.T.reshape(nimg, p, k).transpose(0, 2, 1)
    if acc_fmt.name == "fp32":
        out_t = out_t.astype(np.float32)
    else:
        out_t = out_t.astype(np.float16).astype(np.float32)
    result = out_t.reshape(nimg, k, ho, wo)
    if bias is not None:
        result = result + bias[None, :, None, None]
    return result


def emulated_forward(
    model: Sequential, x: np.ndarray, adder_width: int | None, acc_fmt: FPFormat = FP32,
    session=None,
) -> np.ndarray:
    """Forward pass with every Conv2d routed through the emulation.

    ``adder_width=None`` runs the plain float32 path (the reference).
    ``session`` carries the weight plans across calls — pass the same one
    for every batch and precision of an evaluation so each layer's weights
    are decomposed exactly once.
    """

    def run(layer, h):
        if isinstance(layer, Conv2d):
            if adder_width is None:
                return layer(h)
            bias = None if layer.bias is None else layer.bias.data
            return emulated_conv2d(
                h, layer.weight.data, bias,
                layer.stride, layer.padding, adder_width, acc_fmt,
                session=session,
            )
        if isinstance(layer, Residual):
            main = h
            for sub in layer.main.children:
                main = run(sub, main)
            skip = h
            if layer.shortcut is not None:
                for sub in layer.shortcut.children:
                    skip = run(sub, skip)
            return np.maximum(main + skip, 0)
        if isinstance(layer, Sequential):
            for sub in layer.children:
                h = run(sub, h)
            return h
        return layer(h)

    model.eval()
    return run(model, x)


@dataclass(frozen=True)
class AccuracyPoint:
    precision: int | None  # None = float32 reference
    accuracy: float
    per_batch: tuple[float, ...]

    @property
    def batch_spread(self) -> float:
        return max(self.per_batch) - min(self.per_batch)


def accuracy_vs_precision(
    model: Sequential,
    images: np.ndarray,
    labels: np.ndarray,
    precisions: tuple[int, ...] = (8, 10, 12, 16, 28),
    acc_fmt: FPFormat = FP32,
    batch_size: int = 32,
    session=None,
) -> list[AccuracyPoint]:
    """Top-1 accuracy at each IPU precision plus the float32 reference,
    with per-batch accuracies (the paper's fluctuation analysis).

    One session (``session``, or a transient serial one) spans every
    precision and batch of the run, so each conv layer's weights are
    decoded and nibble-split exactly once.
    """
    points = []
    with _session_or_transient(session) as session:
        for w in (None, *precisions):
            per_batch = []
            correct = 0
            for start in range(0, len(labels), batch_size):
                xb = images[start : start + batch_size]
                yb = labels[start : start + batch_size]
                logits = emulated_forward(model, xb, w, acc_fmt, session=session)
                hits = (logits.argmax(axis=1) == yb)
                per_batch.append(float(hits.mean()))
                correct += int(hits.sum())
            points.append(AccuracyPoint(w, correct / len(labels), tuple(per_batch)))
    return points

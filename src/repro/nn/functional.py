"""From-scratch NumPy neural-network ops with forward and backward passes.

The paper's evaluation needs real convolution workloads in both directions:
forward activations/weights for the inference experiments and backward error
tensors for the training experiments (Fig. 8's "Backward", Fig. 9's wider
exponent distributions). Everything here is plain NumPy in NCHW layout,
implemented via im2col so the inner products the accelerator would execute
are explicit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "im2col",
    "col2im",
    "conv2d",
    "conv2d_backward",
    "linear",
    "linear_backward",
    "relu",
    "relu_backward",
    "max_pool2d",
    "max_pool2d_backward",
    "avg_pool2d",
    "avg_pool2d_backward",
    "batch_norm",
    "batch_norm_backward",
    "softmax",
    "cross_entropy",
    "cross_entropy_backward",
    "conv_output_size",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"convolution output collapses: size={size} k={kernel} s={stride} p={padding}"
        )
    return out


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int, layout: str = "ndp"
) -> np.ndarray:
    """Unfold NCHW input into columns.

    ``layout="ndp"`` (default) returns ``(N, C*kh*kw, Ho*Wo)``; each column
    is one receptive field — exactly the inner-product operand vector an
    IP-based convolution tile consumes. ``layout="npd"`` returns the
    transposed ``(N, Ho*Wo, C*kh*kw)`` arrangement directly, which the
    emulated-IPU paths and the forward matmul consume row-wise; it is
    gathered from a zero-padded channels-last copy of ``x``, so the big copy
    moves channel runs rather than ``kw``-long pieces. ``layout="dnp"``
    returns ``(C*kh*kw, N*Ho*Wo)``, one row per window offset across the
    whole batch: the left operand of the weight-gradient matmul in
    :func:`conv2d_backward`, built in one copy.
    """
    n, c, h, w = x.shape
    ho = conv_output_size(h, kh, stride, padding)
    wo = conv_output_size(w, kw, stride, padding)
    as_strided = np.lib.stride_tricks.as_strided
    if layout == "npd":
        xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
        xp[:, padding : padding + h, padding : padding + w] = x.transpose(0, 2, 3, 1)
        sn, sh, sw, sc = xp.strides
        view = as_strided(xp, (n, ho, wo, c, kh, kw),
                          (sn, sh * stride, sw * stride, sc, sh, sw), writeable=False)
        return view.reshape(n, ho * wo, c * kh * kw)
    if layout not in ("ndp", "dnp"):
        raise ValueError(f"unknown im2col layout {layout!r}")
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    sn, sc, sh, sw = x.strides
    view = as_strided(x, (n, c, kh, kw, ho, wo),
                      (sn, sc, sh, sw, sh * stride, sw * stride), writeable=False)
    if layout == "dnp":
        return view.transpose(1, 2, 3, 0, 4, 5).reshape(c * kh * kw, n * ho * wo)
    return view.reshape(n, c * kh * kw, ho * wo)


def col2im(
    cols: np.ndarray, x_shape: tuple[int, ...], kh: int, kw: int, stride: int, padding: int
) -> np.ndarray:
    """Fold ``(N, C*kh*kw, Ho*Wo)`` columns back, accumulating overlaps
    (adjoint of :func:`im2col`).

    Every pixel adds its overlaps in window-offset ``(i, j)`` order. The
    sums run in a channels-last buffer, which reads the channel-minor
    columns of :func:`conv2d_backward` in runs; the result is the same
    zero-padded NCHW array, cropped when ``padding`` is set.
    """
    n, c, h, w = x_shape
    ho = conv_output_size(h, kh, stride, padding)
    wo = conv_output_size(w, kw, stride, padding)
    acc = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            acc[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += (
                cols6[:, :, i, j].transpose(0, 2, 3, 1))
    out = acc.transpose(0, 3, 1, 2).copy()
    if padding:
        out = out[:, :, padding : padding + h, padding : padding + w]
    return out


def conv2d(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None,
    stride: int = 1, padding: int = 0,
) -> tuple[np.ndarray, tuple]:
    """2-D convolution. ``x``: (N,C,H,W); ``weight``: (K,C,kh,kw).

    Returns ``(output, cache)`` where the cache feeds the backward pass.

    The contractions here and in :func:`conv2d_backward` are the exact
    ``np.matmul`` calls that ``np.einsum(..., optimize=True)`` makes for
    ``"kd,ndp->nkp"``, ``"nkp,ndp->kd"`` and ``"kd,nkp->ndp"``: the same
    operand order (einsum contracts a pair right to left), dtypes and 2-D
    memory layouts, so BLAS runs the same kernel and the outputs match
    einsum's in every bit and stride. A C- or F-ordered operand is a
    different BLAS call and may round differently. The column operands are
    gathered straight from the input rather than through einsum's second,
    transposing copy, and the output keeps einsum's channels-last memory.
    einsum drops a size-1 batch or output plane instead of fusing it, which
    leaves its operand a transposed view; the ``n == 1`` and ``p == 1``
    branches reproduce that. (With both, einsum's weight gradient is a plain
    product: equal values, other strides.)
    """
    k, c, kh, kw = weight.shape
    if x.shape[1] != c:
        raise ValueError(f"input channels {x.shape[1]} != weight channels {c}")
    n = x.shape[0]
    ho = conv_output_size(x.shape[2], kh, stride, padding)
    wo = conv_output_size(x.shape[3], kw, stride, padding)
    wmat = weight.reshape(k, -1)                             # (K, C*kh*kw)
    if n == 1:
        cols = im2col(x, kh, kw, stride, padding, "dnp").T    # (P, D), F-ordered
    else:
        cols = im2col(x, kh, kw, stride, padding, "npd").reshape(n * ho * wo, -1)
    out = np.matmul(cols, wmat.T).reshape(n, ho * wo, k).transpose(0, 2, 1)
    if bias is not None:
        out += bias[None, :, None]
    out = out.reshape(n, k, ho, wo)
    return out, (x, wmat, weight.shape, stride, padding)


def conv2d_backward(dout: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dx, dweight, dbias) of :func:`conv2d` (same matmul plan)."""
    x, wmat, w_shape, stride, padding = cache
    n, k = dout.shape[0], dout.shape[1]
    kh, kw = w_shape[2], w_shape[3]
    dmat = dout.reshape(n, k, -1)                            # (N, K, Ho*Wo)
    p = dmat.shape[2]
    dbias = dmat.sum(axis=(0, 2))
    # (N*P, K), a view when dout is channels-last; both contractions share it
    dpk = np.reshape(dmat.transpose(0, 2, 1), (n * p, k))
    if p == 1:
        cols = im2col(x, kh, kw, stride, padding, "npd").reshape(n, -1).T  # (D, N)
    else:
        cols = im2col(x, kh, kw, stride, padding, "dnp")     # (D, N*P)
    dw = np.matmul(cols, dpk).T.reshape(w_shape)
    dcols = np.matmul(dpk, wmat).reshape(n, p, -1).transpose(0, 2, 1)
    dx = col2im(dcols, x.shape, kh, kw, stride, padding)
    return dx, dw, dbias


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None):
    """Fully connected layer. ``x``: (N,D); ``weight``: (K,D)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out, (x, weight)


def linear_backward(dout: np.ndarray, cache: tuple):
    x, weight = cache
    dx = dout @ weight
    dw = dout.T @ x
    db = dout.sum(axis=0)
    return dx, dw, db


def relu(x: np.ndarray):
    # the mask in x's dtype, so relu_backward's product needs no cast
    # (the products equal a bool mask's, signed zeros included)
    out = np.maximum(x, 0)
    return out, (x > 0).astype(x.dtype)


def relu_backward(dout: np.ndarray, cache: np.ndarray) -> np.ndarray:
    return dout * cache


def max_pool2d(x: np.ndarray, kernel: int, stride: int | None = None):
    stride = stride or kernel
    n, c, h, w = x.shape
    ho = conv_output_size(h, kernel, stride, 0)
    wo = conv_output_size(w, kernel, stride, 0)
    cols = im2col(x.reshape(n * c, 1, h, w), kernel, kernel, stride, 0)
    cols = cols.reshape(n * c, kernel * kernel, ho * wo)
    arg = cols.argmax(axis=1)
    out = np.take_along_axis(cols, arg[:, None, :], axis=1)[:, 0, :]
    return out.reshape(n, c, ho, wo), (x.shape, arg, kernel, stride)


def max_pool2d_backward(dout: np.ndarray, cache: tuple) -> np.ndarray:
    x_shape, arg, kernel, stride = cache
    n, c, h, w = x_shape
    ho, wo = dout.shape[2], dout.shape[3]
    dcols = np.zeros((n * c, kernel * kernel, ho * wo), dtype=dout.dtype)
    np.put_along_axis(dcols, arg[:, None, :], dout.reshape(n * c, 1, ho * wo), axis=1)
    dx = col2im(dcols.reshape(n * c, kernel * kernel, ho * wo), (n * c, 1, h, w), kernel, kernel, stride, 0)
    return dx.reshape(n, c, h, w)


def avg_pool2d(x: np.ndarray, kernel: int, stride: int | None = None):
    stride = stride or kernel
    n, c, h, w = x.shape
    ho = conv_output_size(h, kernel, stride, 0)
    wo = conv_output_size(w, kernel, stride, 0)
    cols = im2col(x.reshape(n * c, 1, h, w), kernel, kernel, stride, 0)
    out = cols.reshape(n * c, kernel * kernel, ho * wo).mean(axis=1)
    return out.reshape(n, c, ho, wo), (x.shape, kernel, stride)


def avg_pool2d_backward(dout: np.ndarray, cache: tuple) -> np.ndarray:
    x_shape, kernel, stride = cache
    n, c, h, w = x_shape
    ho, wo = dout.shape[2], dout.shape[3]
    scale = 1.0 / (kernel * kernel)
    dcols = np.broadcast_to(
        dout.reshape(n * c, 1, ho * wo) * scale, (n * c, kernel * kernel, ho * wo)
    ).astype(dout.dtype)
    dx = col2im(dcols, (n * c, 1, h, w), kernel, kernel, stride, 0)
    return dx.reshape(n, c, h, w)


def batch_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
    running_mean: np.ndarray, running_var: np.ndarray,
    training: bool, momentum: float = 0.9, eps: float = 1e-5,
):
    """Per-channel batch norm on NCHW tensors; updates running stats in place."""
    axes = (0, 2, 3)
    if training:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        running_mean *= momentum
        running_mean += (1 - momentum) * mean
        running_var *= momentum
        running_var += (1 - momentum) * var
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    return out, (xhat, gamma, inv_std)


def batch_norm_backward(dout: np.ndarray, cache: tuple):
    xhat, gamma, inv_std = cache
    axes = (0, 2, 3)
    m = dout.shape[0] * dout.shape[2] * dout.shape[3]
    dgamma = (dout * xhat).sum(axis=axes)
    dbeta = dout.sum(axis=axes)
    dxhat = dout * gamma[None, :, None, None]
    dx = (
        dxhat
        - dxhat.mean(axis=axes)[None, :, None, None]
        - xhat * (dxhat * xhat).sum(axis=axes)[None, :, None, None] / m
    ) * inv_std[None, :, None, None]
    return dx, dgamma, dbeta


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    p = softmax(logits)
    n = logits.shape[0]
    return float(-np.log(np.clip(p[np.arange(n), labels], 1e-12, None)).mean())


def cross_entropy_backward(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    p = softmax(logits)
    n = logits.shape[0]
    p[np.arange(n), labels] -= 1.0
    return p / n

"""Post-training quantization: symmetric INT4/INT8 and FP-format fake-quant.

The mixed-precision experiments run some layers in INT mode; this module
provides the usual symmetric per-tensor (or per-channel) quantizer:
``q = clip(round(x / scale), -2**(b-1), 2**(b-1) - 1)``.

:func:`fake_quantize_fp` is the floating-point counterpart: it rounds a
tensor into any registry format (``"fp16"``, ``"bfloat16"``, custom
``"e4m3"``, ...) and back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuantParams", "calibrate", "quantize", "dequantize", "fake_quantize",
           "fake_quantize_fp"]


@dataclass(frozen=True)
class QuantParams:
    bits: int
    scale: np.ndarray  # scalar or per-channel (broadcastable)

    @property
    def qmin(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def qmax(self) -> int:
        return (1 << (self.bits - 1)) - 1


def calibrate(
    x: np.ndarray, bits: int, per_channel_axis: int | None = None, percentile: float = 100.0
) -> QuantParams:
    """Choose symmetric scales from max (or percentile) absolute values."""
    if not 1 < bits <= 16:
        raise ValueError(f"unsupported quantization width {bits}")
    if per_channel_axis is None:
        amax = np.percentile(np.abs(x), percentile)
        scale = np.asarray(max(float(amax), 1e-12) / ((1 << (bits - 1)) - 1))
    else:
        moved = np.moveaxis(x, per_channel_axis, 0).reshape(x.shape[per_channel_axis], -1)
        amax = np.percentile(np.abs(moved), percentile, axis=1)
        scale = np.maximum(amax, 1e-12) / ((1 << (bits - 1)) - 1)
        shape = [1] * x.ndim
        shape[per_channel_axis] = -1
        scale = scale.reshape(shape)
    return QuantParams(bits=bits, scale=scale)


def quantize(x: np.ndarray, params: QuantParams) -> np.ndarray:
    q = np.round(x / params.scale)
    return np.clip(q, params.qmin, params.qmax).astype(np.int32)


def dequantize(q: np.ndarray, params: QuantParams) -> np.ndarray:
    return q.astype(np.float32) * params.scale


def fake_quantize(x: np.ndarray, bits: int, per_channel_axis: int | None = None) -> np.ndarray:
    """Quantize-dequantize round trip (what a quantized layer computes)."""
    params = calibrate(x, bits, per_channel_axis)
    return dequantize(quantize(x, params), params)


def fake_quantize_fp(x: np.ndarray, fmt="fp16") -> np.ndarray:
    """FP fake-quantization: round ``x`` into a registry format and back.

    Overflow saturates to the format's largest finite value (the usual
    fake-quant convention). Returns float64 of the quantized values.
    """
    from repro.fp.registry import parse_format

    from repro.fp.vecfloat import quantize_array

    return quantize_array(parse_format(fmt), np.asarray(x, dtype=np.float64))

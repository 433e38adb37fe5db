"""FP fake-quantization into any registry format.

:func:`fake_quantize_fp` rounds a tensor into a registry format
(``"fp16"``, ``"bfloat16"``, custom ``"e4m3"``, ...) and back.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fake_quantize_fp"]


def fake_quantize_fp(x: np.ndarray, fmt="fp16") -> np.ndarray:
    """FP fake-quantization: round ``x`` into a registry format and back.

    Overflow saturates to the format's largest finite value (the usual
    fake-quant convention). Returns float64 of the quantized values.
    """
    from repro.fp.registry import parse_format

    from repro.fp.vecfloat import quantize_array

    return quantize_array(parse_format(fmt), np.asarray(x, dtype=np.float64))

"""Vectorized FP decode over NumPy arrays.

The Figure-3 error sweeps emulate millions of FP16 inner products, so the
scalar :meth:`FPFormat.decode` is far too slow there. This module decodes
whole tensors at once into the (sign, unbiased exponent, magnitude) triples
the IPU datapath consumes; the test suite checks it against the scalar
decoder. Encoding back to standard formats goes through NumPy's own
float16/float32 casts.
"""

from __future__ import annotations

import numpy as np

from repro.fp.formats import FP16, FP32, FPFormat

__all__ = [
    "decode_array",
    "decode_fields",
    "float_to_bits",
    "bits_to_float",
    "product_exponents",
    "quantize_array",
    "DecodedArray",
]


class DecodedArray:
    """Structure-of-arrays decode result: sign/exponent/magnitude per element.

    ``magnitude`` has ``fmt.man_bits`` fraction bits; ``unbiased_exp`` is
    subnormal-adjusted (= 1 - bias for zeros and subnormals), exactly like
    the scalar :meth:`repro.fp.formats.FPFormat.decode`.
    """

    __slots__ = ("fmt", "sign", "unbiased_exp", "magnitude")

    def __init__(self, fmt: FPFormat, sign: np.ndarray, unbiased_exp: np.ndarray, magnitude: np.ndarray):
        self.fmt = fmt
        self.sign = sign
        self.unbiased_exp = unbiased_exp
        self.magnitude = magnitude

    @property
    def signed_magnitude(self) -> np.ndarray:
        return np.where(self.sign.astype(bool), -self.magnitude, self.magnitude)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.sign.shape

    def __len__(self) -> int:
        return len(self.sign)


_BIT_DTYPES = {"fp16": (np.float16, np.uint16), "fp32": (np.float32, np.uint32)}


def float_to_bits(fmt: FPFormat, values: np.ndarray) -> np.ndarray:
    """Cast values into ``fmt`` (NumPy rounding = RNE) and view as integers."""
    try:
        fdt, idt = _BIT_DTYPES[fmt.name]
    except KeyError:
        raise NotImplementedError(f"vectorized bits only for fp16/fp32, not {fmt.name}")
    return np.asarray(values, dtype=fdt).view(idt)


def bits_to_float(fmt: FPFormat, bits: np.ndarray) -> np.ndarray:
    fdt, idt = _BIT_DTYPES[fmt.name]
    return np.asarray(bits, dtype=idt).view(fdt)


def decode_fields(fmt: FPFormat, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cast ``values`` into ``fmt`` and split each word into its FP fields.

    This is the one fp16/fp32 bit-field split in the package. It works in
    the format's own unsigned word (uint16 / uint32) and never widens:
    returns ``(sign, unbiased_exp, magnitude)`` as bool, int16 and the
    format's unsigned word. ``magnitude`` carries the hidden bit for normal
    numbers; ``unbiased_exp`` is subnormal-adjusted (``fmt.min_exp`` for
    zeros and subnormals). Infs/NaNs raise ``ValueError`` — the datapath
    experiments only ever see finite tensors, and silently decoding
    specials would corrupt error statistics.
    """
    bits = float_to_bits(fmt, values)
    shape = bits.shape
    bits = bits.reshape(-1)  # 1-D keeps every ufunc below array-valued
    sign_bit = 1 << (fmt.exp_bits + fmt.man_bits)
    exp_max = (1 << fmt.exp_bits) - 1
    sign = bits >= sign_bit
    mag = bits & (sign_bit - 1)
    if mag.size and mag.max() >= exp_max << fmt.man_bits:
        raise ValueError(f"{fmt.name} decode got INF/NaN input")
    field = mag >> fmt.man_bits
    field += field == 0  # subnormals and zeros scale like field 1
    exp = field.astype(np.int16)  # a biased exponent field fits in int16
    exp -= fmt.bias
    # |bits| - ((field - 1) << man_bits): the fraction plus, for normal
    # numbers, the hidden bit (field 1 keeps it, field f >= 2 drops f - 1).
    field -= 1
    field <<= fmt.man_bits
    mag -= field
    return sign.reshape(shape), exp.reshape(shape), mag.reshape(shape)


def decode_array(fmt: FPFormat, values: np.ndarray) -> DecodedArray:
    """Decode an array of floats (cast into ``fmt`` first) into SoA fields.

    The :func:`decode_fields` split, widened to the int8 / int64 contract of
    :class:`DecodedArray`.
    """
    sign, exp, mag = decode_fields(fmt, values)
    return DecodedArray(fmt, sign.astype(np.int8), exp.astype(np.int64), mag.astype(np.int64))


def quantize_array(fmt: FPFormat, values: np.ndarray) -> np.ndarray:
    """Round ``values`` into ``fmt`` with RNE, vectorized, for *any* format.

    Unlike :func:`float_to_bits` this needs no native NumPy dtype, so it
    covers custom ``eXmY`` registry formats. Subnormals are honoured (the
    quantization step clamps at ``2**(min_exp - man_bits)``) and overflow
    *saturates* to the largest finite value — the fake-quantization
    convention — rather than producing infinities. Returns float64.
    """
    x = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("quantize_array got non-finite input")
    _, exp = np.frexp(x)            # |x| = m * 2**exp with m in [0.5, 1)
    unbiased = exp - 1              # exponent of the leading bit
    lsb = np.maximum(unbiased, fmt.min_exp) - fmt.man_bits
    q = np.rint(np.ldexp(x, -lsb))  # RNE onto the format's quantization grid
    out = np.ldexp(q, lsb)
    max_finite = fmt.decode_value(fmt.max_finite_bits())
    return np.clip(out, -max_finite, max_finite)


def product_exponents(a: DecodedArray, b: DecodedArray) -> np.ndarray:
    """Element-wise product exponents ``ê_a + ê_b`` (EHU stage 1)."""
    return a.unbiased_exp + b.unbiased_exp


"""Floating-point substrate: formats, vectorized decode, exact accumulation.

Public surface::

    from repro.fp import FP16, FP32, BF16, TF32, FPFormat, FPClass
    from repro.fp import decode_array, KulischAccumulator
"""

from repro.fp.formats import BF16, FP16, FP32, FORMATS, TF32, Decoded, FPClass, FPFormat
from repro.fp.kulisch import KulischAccumulator, decode_exact, exact_inner_product_bits
from repro.fp.vecfloat import DecodedArray, bits_to_float, decode_array, float_to_bits

__all__ = [
    "BF16", "FP16", "FP32", "TF32", "FORMATS",
    "Decoded", "FPClass", "FPFormat",
    "KulischAccumulator", "decode_exact", "exact_inner_product_bits",
    "DecodedArray", "bits_to_float", "decode_array", "float_to_bits",
]

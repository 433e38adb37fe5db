"""Reference inner-product implementations the emulation is judged against.

Three tiers, in decreasing exactness:

- ``exact_fp_ip``: Kulisch-style exact accumulation, single terminal
  rounding (no alignment loss at all);
- ``masked_exact_fp_ip``: exact accumulation of the *unmasked* products
  floored at the accumulator's 30-fraction-bit LSB — the best any MC-IPU
  can do, used to verify the MC datapath bit-for-bit;
- ``cpu_fp32_dot``: the "FP32 CPU" result the paper compares against.
"""

from __future__ import annotations

import numpy as np

from repro.fp.formats import FP16, FP32, FPFormat
from repro.fp.kulisch import KulischAccumulator, decode_exact
from repro.ipu.accumulator import ACC_FRACTION_BITS

__all__ = ["exact_fp_ip", "masked_exact_fp_ip", "cpu_fp32_dot", "cpu_fp32_dot_batch"]


def exact_fp_ip(
    a_bits: list[int], b_bits: list[int], in_fmt: FPFormat = FP16, out_fmt: FPFormat = FP32
) -> int:
    """Exact inner product of bit-pattern vectors, rounded once to ``out_fmt``."""
    acc = KulischAccumulator(in_fmt)
    for x, y in zip(a_bits, b_bits):
        acc.add_product(x, y)
    return acc.round_to(out_fmt)


def masked_exact_fp_ip(
    a_bits: list[int],
    b_bits: list[int],
    software_precision: int,
    in_fmt: FPFormat = FP16,
) -> tuple[int, int, int]:
    """Exact-within-masking reference: ``(significand, scale, acc_lsb_scale)``.

    Products whose alignment to the max product exponent is at least
    ``software_precision`` are dropped (EHU stage 4); the rest accumulate
    *exactly* (no flooring). An MC-IPU whose serve loop covers the software
    precision differs from this value only through its per-(iteration, cycle)
    accumulator floorings, each of which loses less than one accumulator ULP
    ``2**acc_lsb_scale`` downward — the property the tests assert.
    """
    terms = []
    exps = []
    for x, y in zip(a_bits, b_bits):
        sx, ex = decode_exact(in_fmt, x)
        sy, ey = decode_exact(in_fmt, y)
        terms.append((sx * sy, ex + ey))
        exps.append(ex + ey + 2 * in_fmt.man_bits)  # product exponent ê_a + ê_b
    max_exp = max(exps)
    lsb = max_exp - ACC_FRACTION_BITS
    kept = [t for t, e in zip(terms, exps) if max_exp - e < software_precision]
    if not kept:
        return 0, 0, lsb
    scale = min(s for _, s in kept)
    total = sum(sig << (s - scale) for sig, s in kept)
    return total, scale, lsb


def cpu_fp32_dot(a: np.ndarray, b: np.ndarray) -> np.float32:
    """Sequential float32 dot product — the paper's CPU baseline."""
    acc = np.float32(0)
    for x, y in zip(np.asarray(a, np.float32), np.asarray(b, np.float32)):
        acc = np.float32(acc + x * y)
    return acc


def cpu_fp32_dot_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized float32 reference over a batch of shape ``(B, n)``.

    Computed in float64 and rounded once to float32: for the short vectors
    used here this matches sequential float32 accumulation to within the
    comparison tolerance of the error analysis, and it is the more faithful
    stand-in for "FP32 CPU with FMA" the paper measured against.
    """
    exact = np.sum(np.asarray(a, np.float64) * np.asarray(b, np.float64), axis=-1)
    return exact.astype(np.float32)

"""Frozen pre-engine emulation kernel, kept as a second reference.

This is the original (seed) batch emulation exactly as it shipped before
:mod:`repro.ipu.engine` replaced it on the hot paths. It is retained only as
a test oracle: the engine property tests, the seed Figure-3 sweep test and
the seed convolution test assert bit-identity against it (in addition to
the scalar golden model), pinning the engine to the historical bits. It
sums in int64, so it stays a valid reference at any lane count.

Do not optimise or otherwise modify this module; new functionality belongs
in :mod:`repro.ipu.engine`.
"""

from __future__ import annotations

import numpy as np

from repro.fp.formats import FP16, FP32, FPFormat, np_float_dtype
from repro.fp.vecfloat import decode_array
from repro.ipu.accumulator import ACC_FRACTION_BITS
from repro.ipu.ehu import serve_cycles
from repro.ipu.engine import FPIPBatchResult
from repro.ipu.theory import safe_precision
from repro.nibble.decompose import fp_magnitude_nibbles_vec, fp_nibble_count, fp_nibble_weight_exp

__all__ = ["fp_ip_batch_seed"]


def fp_ip_batch_seed(
    a: np.ndarray,
    b: np.ndarray,
    adder_width: int,
    software_precision: int | None = None,
    acc_fmt: FPFormat = FP32,
    in_fmt: FPFormat = FP16,
    multi_cycle: bool = False,
) -> FPIPBatchResult:
    """The seed emulation loop (decode per call, row-major nibble passes)."""
    sw = adder_width if software_precision is None else software_precision
    sp = safe_precision(adder_width, strict=multi_cycle and software_precision is not None
                        and adder_width < software_precision)
    if not multi_cycle and sw > adder_width:
        raise ValueError(
            f"single-cycle IPU({adder_width}) cannot reach software precision {sw}; "
            "set multi_cycle=True"
        )
    if multi_cycle and adder_width < sw and sw > 59:
        # live MC lanes then shift past the 58-bit clamp below, and the
        # seed loop truncates them: refuse rather than return wrong rows
        raise ValueError(
            f"the seed kernel is a valid reference for MC points only up to "
            f"software precision 59, got {sw}")

    da, db = decode_array(in_fmt, a), decode_array(in_fmt, b)
    k_total = fp_nibble_count(in_fmt)
    nib_a = fp_magnitude_nibbles_vec(in_fmt, da.magnitude)  # (B, n, K)
    nib_b = fp_magnitude_nibbles_vec(in_fmt, db.magnitude)
    neg = (da.sign.astype(bool)) ^ (db.sign.astype(bool))   # product signs
    nib_a = np.where(neg[..., None], -nib_a, nib_a)

    exps = da.unbiased_exp + db.unbiased_exp                # (B, n)
    max_exp = exps.max(axis=1)                              # (B,)
    shifts = max_exp[:, None] - exps                        # (B, n) >= 0
    masked = shifts >= sw

    frac = -2 * fp_nibble_weight_exp(in_fmt, 0)             # 22 for FP16
    register = np.zeros(a.shape[0], dtype=np.int64)

    if multi_cycle and adder_width < sw:
        cyc_index = np.where(masked, -1, serve_cycles(shifts, sp))
        n_align = np.maximum(cyc_index.max(axis=1), 0) + 1
        max_cycles = int(n_align.max())
    else:
        cyc_index = np.where(masked, -1, 0)
        n_align = np.ones(a.shape[0], dtype=np.int64)
        max_cycles = 1

    safe_shift = np.minimum(shifts, 58)
    up, down = max(sp, 0), max(-sp, 0)
    if max_cycles == 1:
        nib_a = np.where(masked[..., None], 0, nib_a)
        for i in range(k_total):
            for j in range(k_total):
                products = nib_a[:, :, i] * nib_b[:, :, j]  # (B, n), |p| <= 225
                tree = ((products << up) >> (safe_shift + down)).sum(axis=1, dtype=np.int64)
                shift_left = 4 * (i + j) - frac - sp + ACC_FRACTION_BITS
                if shift_left >= 0:
                    register += tree << shift_left
                else:
                    register += tree >> (-shift_left)
    else:
        for i in range(k_total):
            for j in range(k_total):
                products = nib_a[:, :, i] * nib_b[:, :, j]
                for c in range(max_cycles):
                    serving = cyc_index == c
                    if not serving.any():
                        continue
                    coarse = c * sp
                    local = np.where(serving, safe_shift - coarse, 0)
                    word = np.where(serving, (products << up) >> (local + down), 0)
                    tree = word.sum(axis=1, dtype=np.int64)  # (B,)
                    lsb = 4 * (i + j) - frac - sp - coarse
                    shift_left = lsb + ACC_FRACTION_BITS
                    if shift_left >= 0:
                        register += tree << shift_left
                    else:
                        register += tree >> (-shift_left)

    values = register.astype(np.float64) * np.exp2((max_exp - ACC_FRACTION_BITS).astype(np.float64))
    rounded = values.astype(np_float_dtype(acc_fmt))
    iterations = k_total * k_total
    return FPIPBatchResult(
        values=values,
        rounded=rounded,
        max_exp=max_exp,
        alignment_cycles=n_align,
        total_cycles=n_align * iterations,
    )

"""Batched INT-mode inner products.

The FP inner product runs through :mod:`repro.ipu.engine`
(:func:`~repro.ipu.engine.pack_operands` +
:func:`~repro.ipu.engine.fp_ip_points`) or an
:class:`repro.api.EmulationSession`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["int_dot_batch"]


def int_dot_batch(
    a: np.ndarray,
    b: np.ndarray,
    a_bits: int,
    b_bits: int,
    signed: bool = True,
) -> tuple[np.ndarray, int]:
    """Batched INT-mode inner products: ``(results, cycles_per_op)``.

    INT mode is exact (validated against the nibble-iterated golden model in
    the tests), so the batched form is a range-checked integer einsum plus
    the temporal cycle count ``Ka * Kb``.
    """
    from repro.nibble.schedule import iteration_count

    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    for arr, bits, name in ((a, a_bits, "a"), (b, b_bits, "b")):
        lo = -(1 << (bits - 1)) if signed else 0
        hi = (1 << (bits - 1)) - 1 if signed else (1 << bits) - 1
        if arr.min(initial=0) < lo or arr.max(initial=0) > hi:
            raise OverflowError(f"operand {name} exceeds {'' if signed else 'u'}int{bits}")
    return (a * b).sum(axis=-1), iteration_count(a_bits, b_bits)

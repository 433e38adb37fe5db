"""Exponent Handling Unit (paper §2.2 and Figure 5).

The EHU turns per-element operand exponents into alignment shift amounts and
(for MC-IPUs) a serve schedule. Its five stages:

1. element-wise sum of the operands' unbiased exponents (product exponents);
2. maximum of the product exponents;
3. alignment shifts = max - product exponent;
4. mask products whose shift meets/exceeds the *software precision* (their
   contribution falls entirely below the accumulator's kept window);
5. (MC only) iterate cycles ``k = 0, 1, ...`` serving every not-yet-served
   product whose shift is within the threshold ``(k+1) * sp``, where
   ``sp`` is the IPU's safe precision.

One EHU is shared by the IPUs of a cluster: a full FP16 x FP16 inner product
runs nine nibble iterations with identical exponents, so the EHU result is
computed once and reused (this is why its area is amortized, §4.2).

Both a scalar object model (golden, used by the bit-accurate IPU) and
vectorized NumPy kernels (used by the statistical tile simulator and the
Figure-3 sweeps) are provided and cross-checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AlignmentPlan", "ExponentHandlingUnit", "mc_cycle_counts", "serve_cycles"]


@dataclass(frozen=True)
class AlignmentPlan:
    """Stage 1-4 output for one FP inner product.

    ``shifts[k]`` is the right-shift aligning product k to ``max_exp``;
    ``masked[k]`` means the product is dropped (shift >= software precision).
    """

    product_exps: tuple[int, ...]
    max_exp: int
    shifts: tuple[int, ...]
    masked: tuple[bool, ...]

    @property
    def active_shifts(self) -> list[int]:
        return [s for s, m in zip(self.shifts, self.masked) if not m]


class ExponentHandlingUnit:
    """Scalar EHU model.

    Parameters
    ----------
    software_precision:
        Accuracy requirement from the accumulator type (paper §3.1: >=16 for
        FP16 accumulation, >=26..28 for FP32). Products needing alignment of
        this many bits or more are masked in stage 4.
    """

    def __init__(self, software_precision: int):
        if software_precision < 1:
            raise ValueError("software precision must be positive")
        self.software_precision = software_precision

    def plan(self, a_exps: list[int], b_exps: list[int]) -> AlignmentPlan:
        """Run stages 1-4 for one n-element FP inner product."""
        if len(a_exps) != len(b_exps):
            raise ValueError("exponent vectors must have equal length")
        if not a_exps:
            raise ValueError("empty inner product")
        prods = tuple(ea + eb for ea, eb in zip(a_exps, b_exps))
        mx = max(prods)
        shifts = tuple(mx - e for e in prods)
        masked = tuple(s >= self.software_precision for s in shifts)
        return AlignmentPlan(prods, mx, shifts, masked)

    def serve_schedule(self, plan: AlignmentPlan, sp: int) -> list[list[int]]:
        """Stage 5: group active product indices by serving cycle.

        Cycle ``k`` has threshold ``(k+1)*sp``; a product with shift ``s`` is
        served in the first cycle whose threshold reaches it, i.e. cycle
        ``max(0, ceil(s/sp) - 1)``. The schedule runs through every cycle up
        to the last occupied one, matching the sequential-threshold hardware
        in Figure 5 (empty intermediate cycles still elapse).
        """
        if sp < 1:
            raise ValueError("safe precision must be positive")
        active = [k for k, m in enumerate(plan.masked) if not m]
        if not active:
            return [[]]
        last = max(serve_cycle(plan.shifts[k], sp) for k in active)
        groups: list[list[int]] = [[] for _ in range(last + 1)]
        for k in active:
            groups[serve_cycle(plan.shifts[k], sp)].append(k)
        return groups


def serve_cycle(shift: int, sp: int) -> int:
    """Cycle index in which a product with this alignment shift is served."""
    if shift <= sp:
        return 0
    return -(-shift // sp) - 1  # ceil(shift/sp) - 1


def serve_cycles(shifts: np.ndarray, sp: int) -> np.ndarray:
    """Vectorized :func:`serve_cycle`."""
    s = np.asarray(shifts, dtype=np.int64)
    return np.maximum(0, -(-s // sp) - 1)


def mc_cycle_counts(
    shifts: np.ndarray,
    masked: np.ndarray,
    sp: int,
    adder_width: int,
    software_precision: int,
    skip_empty_cycles: bool = False,
) -> np.ndarray:
    """Cycles per nibble iteration for batches of inner products.

    Parameters
    ----------
    shifts, masked:
        Arrays of shape ``(..., n)``: alignment shifts and stage-4 masks.
    sp:
        Safe precision of the MC-IPU (``w - 9``).
    adder_width:
        ``w``. When ``w >= software_precision`` the unit is a plain
        truncating IPU and every iteration takes exactly one cycle.
    skip_empty_cycles:
        Ablation knob: a smarter stage-5 that jumps over empty partitions
        (cycles = number of occupied partitions instead of max index + 1).

    Returns an int array of shape ``(...,)``.
    """
    shifts = np.asarray(shifts, dtype=np.int64)
    masked = np.asarray(masked, dtype=bool)
    batch_shape = shifts.shape[:-1]
    if adder_width >= software_precision:
        return np.ones(batch_shape, dtype=np.int64)
    cycles_per_prod = serve_cycles(shifts, sp)
    cycles_per_prod = np.where(masked, -1, cycles_per_prod)
    if not skip_empty_cycles:
        # sequential thresholds: last occupied partition index + 1 (min 1)
        return np.maximum(cycles_per_prod.max(axis=-1), 0) + 1
    # occupied-partition count (ablation): distinct non-negative indices
    # per row, i.e. the sorted row's first occurrences that are not masked
    ordered = np.sort(cycles_per_prod, axis=-1)
    first = np.ones(ordered.shape, dtype=bool)
    first[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    counts = np.count_nonzero(first & (ordered >= 0), axis=-1)
    return np.maximum(counts, 1).astype(np.int64)

"""The paper's core contribution: mixed-precision (MC-)IPU datapath models."""

from repro.ipu.accumulator import ACC_FRACTION_BITS, Accumulator
from repro.ipu.datapath import AdderTree, LocalShifter, SignedMultiplier5x5
from repro.ipu.ehu import AlignmentPlan, ExponentHandlingUnit, mc_cycle_counts, serve_cycles
from repro.ipu.engine import (
    FPIPBatchResult,
    KernelPoint,
    PackedOperands,
    fp_ip_points,
    pack_operands,
)
from repro.ipu.ipu import SOFTWARE_PRECISION, FPIPResult, InnerProductUnit, IPUConfig
from repro.ipu.mc_ipu import (
    BASELINE_ADDER_WIDTH,
    make_baseline_ipu,
    make_mc_ipu,
)
from repro.ipu.reference import cpu_fp32_dot, cpu_fp32_dot_batch, exact_fp_ip, masked_exact_fp_ip
from repro.ipu.theory import (
    MAX_FP16_PRODUCT_SHIFT,
    PRODUCT_MAGNITUDE_BITS,
    min_adder_width_for_exact,
    safe_precision,
    theorem1_bound,
)

__all__ = [
    "ACC_FRACTION_BITS", "Accumulator",
    "AdderTree", "LocalShifter", "SignedMultiplier5x5",
    "AlignmentPlan", "ExponentHandlingUnit", "mc_cycle_counts", "serve_cycles",
    "SOFTWARE_PRECISION", "FPIPResult", "InnerProductUnit", "IPUConfig",
    "BASELINE_ADDER_WIDTH", "make_baseline_ipu", "make_mc_ipu",
    "cpu_fp32_dot", "cpu_fp32_dot_batch", "exact_fp_ip", "masked_exact_fp_ip",
    "MAX_FP16_PRODUCT_SHIFT", "PRODUCT_MAGNITUDE_BITS",
    "min_adder_width_for_exact", "safe_precision", "theorem1_bound",
    "FPIPBatchResult",
    "KernelPoint", "PackedOperands", "fp_ip_points", "pack_operands",
]

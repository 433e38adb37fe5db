"""Multi-Cycle IPU conveniences (paper §3.2).

The MC-IPU shares its datapath with the plain IPU — the difference is purely
the EHU serve loop, which :class:`repro.ipu.ipu.InnerProductUnit` already
engages whenever ``adder_width < software_precision``. This module provides
the named constructors used throughout the experiments.
"""

from __future__ import annotations

from repro.fp.formats import FP32, FPFormat
from repro.ipu.ipu import InnerProductUnit, IPUConfig

__all__ = ["make_mc_ipu", "make_baseline_ipu", "BASELINE_ADDER_WIDTH"]

# NVDLA-style baseline adder-tree width (paper §4.1: 38-bit wide adder tree).
BASELINE_ADDER_WIDTH = 38


def make_mc_ipu(
    adder_width: int,
    acc_fmt: FPFormat = FP32,
    n_inputs: int = 16,
    max_accumulations: int = 512,
) -> InnerProductUnit:
    """An MC-IPU(w) serving the software precision of ``acc_fmt``."""
    return InnerProductUnit(
        IPUConfig.for_accumulator(acc_fmt, n_inputs=n_inputs, adder_width=adder_width,
                                  max_accumulations=max_accumulations)
    )


def make_baseline_ipu(acc_fmt: FPFormat = FP32, n_inputs: int = 16) -> InnerProductUnit:
    """The paper's baseline: 38-bit adder tree, never multi-cycles."""
    return make_mc_ipu(BASELINE_ADDER_WIDTH, acc_fmt, n_inputs)


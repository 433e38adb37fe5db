"""Numerical analyses: error sweeps, exponent histograms, accuracy evals."""

from repro.analysis.accuracy import AccuracyPoint, accuracy_vs_precision, emulated_conv2d, emulated_forward
from repro.analysis.error import ErrorStats, contaminated_bits, error_stats
from repro.analysis.exponents import ShiftHistogram, alignment_histogram, histogram_from_model
from repro.analysis.sweeps import (
    DEFAULT_PRECISIONS,
    PrecisionSweep,
    SweepPoint,
    recommended_min_precision,
)

__all__ = [
    "AccuracyPoint", "accuracy_vs_precision", "emulated_conv2d", "emulated_forward",
    "ErrorStats", "contaminated_bits", "error_stats",
    "ShiftHistogram", "alignment_histogram", "histogram_from_model",
    "DEFAULT_PRECISIONS", "PrecisionSweep", "SweepPoint",
    "recommended_min_precision",
]

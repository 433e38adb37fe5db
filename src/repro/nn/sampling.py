"""Tensor value samplers for the numerical and performance analyses.

The paper's error analysis (§3.1) draws synthetic operands from Laplace,
Normal and uniform distributions ("as they resemble the distribution of DNN
tensors") plus 5% samples of ResNet conv-layer tensors. Offline we cover the
same ground with the three synthetic families and with tensors captured from
our trained NumPy models; for the shape-faithful large workloads we
synthesize values whose distribution family matches what trained CNNs
exhibit (post-ReLU activations ~ half-Laplace with a zero spike, weights ~
Normal, backward errors ~ heavy-tailed Laplace with much wider dynamic
range — the property driving Fig. 9's fwd/bwd contrast).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.utils.rng import as_generator

__all__ = [
    "DISTRIBUTIONS",
    "sample_distribution",
    "sample_operand_batch",
    "TensorModel",
    "FORWARD_ACTIVATION",
    "FORWARD_WEIGHT",
    "BACKWARD_ERROR",
    "BACKWARD_WEIGHT",
    "sample_model_tensors",
    "MIXTURE_PREFIX",
    "MIXTURE_TAIL_LOG2",
    "TENSOR_DUMP_PREFIX",
    "parse_mixture_source",
    "sample_mixture_operands",
    "tensor_dump_operands",
]

DISTRIBUTIONS = ("laplace", "normal", "uniform")


def sample_distribution(name: str, shape: tuple[int, ...], rng=None, scale: float = 1.0) -> np.ndarray:
    """Draw synthetic operands from one of the paper's three families."""
    rng = as_generator(rng)
    if name == "laplace":
        return rng.laplace(0.0, scale / np.sqrt(2.0), size=shape)
    if name == "normal":
        return rng.normal(0.0, scale, size=shape)
    if name == "uniform":
        # re-scaled tensors as suggested for FP16 training (Micikevicius 2017)
        return rng.uniform(-scale, scale, size=shape)
    raise ValueError(f"unknown distribution {name!r}; pick from {DISTRIBUTIONS}")


def sample_operand_batch(
    name: str, batch: int, n: int, rng=None, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) operand batches of shape (batch, n) for FP-IP error sweeps."""
    rng = as_generator(rng)
    a = sample_distribution(name, (batch, n), rng, scale)
    b = sample_distribution(name, (batch, n), rng, scale)
    return a, b


@dataclass(frozen=True)
class TensorModel:
    """Parametric model of a DNN tensor's value distribution.

    ``family`` picks the base sampler; ``zero_fraction`` injects exact zeros
    (ReLU sparsity); ``log2_scale_sigma`` jitters the per-channel scale in
    log-space, widening the exponent distribution the way depth-wise scale
    variation does in real networks (key for backward-path realism).
    """

    family: str
    scale: float = 1.0
    zero_fraction: float = 0.0
    log2_scale_sigma: float = 0.0
    nonnegative: bool = False
    outlier_fraction: float = 0.0
    outlier_log2_shift: float = 0.0

    def sample(self, shape: tuple[int, ...], rng=None) -> np.ndarray:
        rng = as_generator(rng)
        if self.family == "lognormal":
            # magnitude = scale * 2**N(0, sigma): the exponent spread is the
            # *direct* knob, which is what alignment statistics depend on.
            x = self.scale * np.exp2(rng.normal(0.0, self.log2_scale_sigma, size=shape))
            if not self.nonnegative:
                x = x * rng.choice((-1.0, 1.0), size=shape)
            return self._post(x, shape, rng)
        x = sample_distribution(self.family, shape, rng, self.scale)
        if self.nonnegative:
            x = np.abs(x)
        if self.log2_scale_sigma > 0:
            # Per-element log-scale jitter. Within one inner-product chunk
            # the operands come from different channels/positions whose
            # scales differ; a shared per-chunk scale would cancel out of
            # the alignment-shift statistics entirely.
            x = x * np.exp2(rng.normal(0.0, self.log2_scale_sigma, size=shape))
        return self._post(x, shape, rng)

    def _post(self, x: np.ndarray, shape: tuple[int, ...], rng) -> np.ndarray:
        if self.outlier_fraction > 0:
            # A small population of extreme-exponent values (boundary pixels,
            # dying channels): the tail that triggers multi-cycle alignment.
            hit = rng.random(shape) < self.outlier_fraction
            x = np.where(hit, x * 2.0**self.outlier_log2_shift, x)
        if self.zero_fraction > 0:
            x = np.where(rng.random(shape) < self.zero_fraction, 0.0, x)
        return x


# Calibrated tensor families (see EXPERIMENTS.md "value model" notes).
# Forward: post-ReLU activations are non-negative and sparse with a tight
# exponent core (~0.75 bits sigma) plus a ~1% extreme-exponent outlier tail
# -- this reproduces the paper's Fig. 9a statistic that only ~1% of product
# alignments exceed 8 bits. Weights have an even tighter spread.
# Backward: error tensors span a far wider dynamic range (sigma ~3.5 bits),
# reproducing Fig. 9b's wide alignment distribution and the >=60%/4x
# backward slowdowns of Fig. 8.
FORWARD_ACTIVATION = TensorModel("lognormal", scale=1.0, zero_fraction=0.40,
                                 log2_scale_sigma=0.75, nonnegative=True,
                                 outlier_fraction=0.012, outlier_log2_shift=-9.0)
FORWARD_WEIGHT = TensorModel("lognormal", scale=0.05, log2_scale_sigma=0.45)
BACKWARD_ERROR = TensorModel("lognormal", scale=0.5, log2_scale_sigma=3.5)
BACKWARD_WEIGHT = TensorModel("lognormal", scale=0.05, log2_scale_sigma=0.8)


# -- adversarial / captured sources ------------------------------------------
#
# Registered RunSpec source grammars beyond the paper's named distributions:
#
# ``mixture:<family>+outliers@<p>[/<shift>]`` — an outlier-heavy mixture: the
# base family contaminated by a fraction ``p`` of values whose exponents are
# shifted up by ``shift`` bits (default 8). The adversarial shape for a
# truncating alignment tree: a few huge-exponent addends swamp the shifter
# and contaminate every smaller term's contribution.
#
# ``tensor-dump:<path>`` — operands resampled from a captured tensor dump
# (``.npy`` flat values used for both operands, or ``.npz`` with ``a``/``b``
# arrays, or a single ``values`` array). Sampling position comes from the
# caller's RNG, so a sweep over a dump is as deterministic as the synthetic
# families; the dump *contents* are not part of any spec fingerprint — treat
# a changed dump file as a new source name.

MIXTURE_PREFIX = "mixture:"
# Headroom for the base family's own tail, in octaves: at scale 1 a Laplace
# draw reaches 2**5 = 32 with probability e**-45, a normal one with ~1e-224
# and a uniform one never. A mixture whose shifted outliers plus this tail
# reach the operand format's largest finite value is rejected at spec build.
MIXTURE_TAIL_LOG2 = 5
TENSOR_DUMP_PREFIX = "tensor-dump:"

_MIXTURE_RE = re.compile(
    r"^mixture:(?P<family>[a-z]+)\+outliers@(?P<p>[0-9.]+)(?:/(?P<shift>[0-9.]+))?$"
)


def parse_mixture_source(source: str) -> TensorModel:
    """A :class:`TensorModel` from a ``mixture:...`` source string."""
    m = _MIXTURE_RE.match(source.strip().lower())
    if m is None:
        raise ValueError(
            f"malformed mixture source {source!r}; expected "
            "'mixture:<family>+outliers@<p>[/<shift>]' "
            "(e.g. 'mixture:laplace+outliers@0.01')"
        )
    family = m.group("family")
    if family not in DISTRIBUTIONS:
        raise ValueError(
            f"unknown mixture family {family!r}; pick from {DISTRIBUTIONS}")
    p = float(m.group("p"))
    if not 0.0 < p < 1.0:
        raise ValueError(f"outlier fraction must be in (0, 1), got {p}")
    shift = 8.0 if m.group("shift") is None else float(m.group("shift"))
    return TensorModel(family, outlier_fraction=p, outlier_log2_shift=shift)


def sample_mixture_operands(
    source: str, batch: int, n: int, rng=None
) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) operand batches for a ``mixture:...`` source string."""
    model = parse_mixture_source(source)
    rng = as_generator(rng)
    return model.sample((batch, n), rng), model.sample((batch, n), rng)


def _load_dump_arrays(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The (a-pool, b-pool) value arrays of one dump file, flattened."""
    if not Path(path).exists():
        raise ValueError(f"tensor dump {path!r} does not exist")
    loaded = np.load(path, allow_pickle=False)
    if isinstance(loaded, np.ndarray):
        pools = (loaded, loaded)
    elif "a" in loaded and "b" in loaded:
        pools = (loaded["a"], loaded["b"])
    elif "values" in loaded:
        pools = (loaded["values"], loaded["values"])
    else:
        raise ValueError(
            f"tensor dump {path!r} needs 'a'+'b' arrays or a 'values' array; "
            f"found {sorted(loaded.files)}")
    out = []
    for pool in pools:
        flat = np.asarray(pool, dtype=np.float64).ravel()
        flat = flat[np.isfinite(flat)]
        if flat.size == 0:
            raise ValueError(f"tensor dump {path!r} has no finite values")
        out.append(flat)
    return out[0], out[1]


def tensor_dump_operands(
    source: str, batch: int, n: int, rng=None
) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) operand batches resampled from a ``tensor-dump:<path>`` source.

    Each operand entry is an independent draw (with replacement) from the
    dump's value pool, positioned by the caller's RNG — the empirical
    analogue of :func:`sample_operand_batch` for captured tensors.
    """
    if source.startswith(TENSOR_DUMP_PREFIX):
        source = source[len(TENSOR_DUMP_PREFIX):]
    pool_a, pool_b = _load_dump_arrays(source)
    rng = as_generator(rng)
    a = pool_a[rng.integers(0, pool_a.size, size=(batch, n))]
    b = pool_b[rng.integers(0, pool_b.size, size=(batch, n))]
    return a, b


def sample_model_tensors(
    direction: str, batch: int, n: int, rng=None
) -> tuple[np.ndarray, np.ndarray]:
    """Operand batches for forward or backward conv inner products."""
    rng = as_generator(rng)
    if direction == "forward":
        a = FORWARD_ACTIVATION.sample((batch, n), rng)
        b = FORWARD_WEIGHT.sample((batch, n), rng)
    elif direction == "backward":
        a = BACKWARD_ERROR.sample((batch, n), rng)
        b = BACKWARD_WEIGHT.sample((batch, n), rng)
    else:
        raise ValueError("direction must be 'forward' or 'backward'")
    return a, b

"""Analytic results from the paper: Theorem 1 and Proposition 1.

These are used both by the design-space tooling (choosing safe precisions)
and by the property-based tests, which check the emulated datapath against
the bound on randomized inputs.
"""

from __future__ import annotations

__all__ = [
    "safe_precision",
    "min_adder_width_for_exact",
    "theorem1_bound",
    "required_iterations_fp16",
    "MAX_FP16_PRODUCT_SHIFT",
    "PRODUCT_MAGNITUDE_BITS",
]

# A 5b x 5b signed multiply of nibble digits (|n| <= 15) is at most 225:
# 8 magnitude bits; 9 bits including sign.
PRODUCT_MAGNITUDE_BITS = 9

# FP16 product exponents span [-28, 30] (paper §2.2), so the worst-case
# alignment between two FP16 products is 58 bits.
MAX_FP16_PRODUCT_SHIFT = 58


def safe_precision(adder_width: int, strict: bool = False) -> int:
    """Proposition 1: shifts up to ``w - 9`` are exact for an IPU(w).

    A product carries :data:`PRODUCT_MAGNITUDE_BITS` significant bits; after
    an ``s``-bit right shift it spans ``9 + s`` bits, which the ``w``-bit
    adder-tree input represents exactly iff ``s <= w - 9``.

    Sub-product windows (``w <= 9``, e.g. the paper's 8-bit sweep point)
    have no exact shift at all: ``sp <= 0`` means even unshifted products
    are truncated. ``strict`` rejects them — required for the MC serve loop,
    which decomposes shifts into multiples of ``sp``.
    """
    sp = adder_width - PRODUCT_MAGNITUDE_BITS
    if adder_width < 4:
        raise ValueError(f"adder width {adder_width} is unbuildably narrow")
    if strict and sp < 1:
        raise ValueError(
            f"adder width {adder_width} has no safe precision (needs > "
            f"{PRODUCT_MAGNITUDE_BITS} bits); multi-cycle operation impossible"
        )
    return sp


def min_adder_width_for_exact(max_shift: int) -> int:
    """Smallest adder-tree width whose safe precision covers ``max_shift``."""
    return max_shift + PRODUCT_MAGNITUDE_BITS


def theorem1_bound(i: int, j: int, precision: int, max_exp: int, n: int) -> float:
    """Theorem 1: bound on |error| of ``approx_nibble_iteration(i, j, precision)``.

    abs_error(i, j) <= 225 * 2**(4*(i+j) - 22) * 2**(max_exp - precision) * (n - 1)

    The worst case has one product at the max exponent and the other ``n-1``
    all shifted past ``precision`` with maximal digits (15*15 = 225) and the
    same sign; ``2**(4*(i+j) - 22)`` places the nibble pair's significance
    and ``2**max_exp`` scales to the operation's exponent.
    """
    if n < 1:
        raise ValueError("inner product needs n >= 1")
    return 225.0 * 2.0 ** (4 * (i + j) - 22) * 2.0 ** (max_exp - precision) * (n - 1)


def required_iterations_fp16() -> int:
    """FP16 x FP16 always takes 9 nibble iterations on the INT4-based IPU."""
    return 9

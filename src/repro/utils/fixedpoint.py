"""Arbitrary-precision fixed-point value with an attached binary exponent.

The accumulators in the paper hold *non-normalized* signed-magnitude values:
an integer register interpreted as ``register * 2**(exponent - frac_bits)``.
:class:`FixedPoint` models that pairing exactly with Python ints so the
datapath models can be checked bit-for-bit against wide references.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.bits import floor_div_pow2

__all__ = ["FixedPoint"]


@dataclass(frozen=True)
class FixedPoint:
    """A value ``significand * 2**scale`` with exact integer significand.

    ``scale`` is the weight (in powers of two) of the significand's LSB.
    The class is immutable; arithmetic returns new instances. Addition
    aligns exactly (no truncation) — truncation is an explicit operation
    because in the hardware it only ever happens at specific shifters.
    """

    significand: int
    scale: int

    @staticmethod
    def zero() -> "FixedPoint":
        return FixedPoint(0, 0)

    @staticmethod
    def from_float(value: float, frac_bits: int = 64) -> "FixedPoint":
        """Exact conversion of a binary float (floats are dyadic rationals)."""
        f = float(value)
        if f != f or f in (float("inf"), float("-inf")):
            raise ValueError(f"cannot represent {value} as FixedPoint")
        m, e = _float_to_mantissa_exp(f)
        del frac_bits  # conversion is always exact; kept for API clarity
        return FixedPoint(m, e)

    def to_float(self) -> float:
        return float(self.significand) * 2.0**self.scale

    def is_zero(self) -> bool:
        return self.significand == 0

    def normalized(self) -> "FixedPoint":
        """Strip trailing zero bits so equal values compare equal."""
        s, e = self.significand, self.scale
        if s == 0:
            return FixedPoint(0, 0)
        while s % 2 == 0:
            s //= 2
            e += 1
        return FixedPoint(s, e)

    def __add__(self, other: "FixedPoint") -> "FixedPoint":
        lo = min(self.scale, other.scale)
        a = self.significand << (self.scale - lo)
        b = other.significand << (other.scale - lo)
        return FixedPoint(a + b, lo)

    def __sub__(self, other: "FixedPoint") -> "FixedPoint":
        return self + FixedPoint(-other.significand, other.scale)

    def __neg__(self) -> "FixedPoint":
        return FixedPoint(-self.significand, self.scale)

    def __mul__(self, other: "FixedPoint") -> "FixedPoint":
        return FixedPoint(self.significand * other.significand, self.scale + other.scale)

    def shifted(self, right: int) -> "FixedPoint":
        """Exact shift: moves the binary point without losing bits."""
        return FixedPoint(self.significand, self.scale - right)

    def truncated_to_scale(self, new_scale: int) -> "FixedPoint":
        """Drop bits below ``2**new_scale`` (floor, as a hardware shifter does)."""
        if new_scale <= self.scale:
            return FixedPoint(self.significand << (self.scale - new_scale), new_scale)
        return FixedPoint(floor_div_pow2(self.significand, new_scale - self.scale), new_scale)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FixedPoint):
            return NotImplemented
        a, b = self.normalized(), other.normalized()
        return a.significand == b.significand and (a.significand == 0 or a.scale == b.scale)

    def __hash__(self) -> int:
        n = self.normalized()
        return hash((n.significand, n.scale))


def _float_to_mantissa_exp(f: float) -> tuple[int, int]:
    """Decompose a finite float into (integer mantissa, exponent), exactly."""
    m, e = f.as_integer_ratio()
    # denominator is a power of two for binary floats
    shift = e.bit_length() - 1
    assert e == 1 << shift, "float denominator must be a power of two"
    return m, -shift

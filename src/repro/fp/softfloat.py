"""Scalar, bit-exact software floating point built on exact integer math.

Multiplication and addition decode operands into exact dyadic rationals,
compute the exact result, and round once with round-to-nearest-even. This is
the IEEE-754 "correctly rounded" semantics, used as the golden model for the
datapath emulation and validated against NumPy's float16/float32 in tests.
"""

from __future__ import annotations

from repro.fp.formats import Decoded, FPClass, FPFormat

__all__ = ["fp_mul", "fp_add", "fp_fma", "decode_exact"]


def decode_exact(fmt: FPFormat, bits: int) -> tuple[int, int]:
    """Decode finite ``bits`` to exact ``(signed significand, scale)``.

    The value equals ``signed_significand * 2**scale``.
    """
    d = fmt.decode(bits)
    if d.fpclass in (FPClass.INF, FPClass.NAN):
        raise ValueError("decode_exact requires a finite number")
    return d.signed_magnitude, d.unbiased_exp - fmt.man_bits


def _special_mul(fmt: FPFormat, a: Decoded, b: Decoded) -> int | None:
    if a.fpclass is FPClass.NAN or b.fpclass is FPClass.NAN:
        return fmt.nan_bits()
    sign = a.sign ^ b.sign
    if a.fpclass is FPClass.INF or b.fpclass is FPClass.INF:
        if a.fpclass is FPClass.ZERO or b.fpclass is FPClass.ZERO:
            return fmt.nan_bits()  # inf * 0
        return fmt.inf_bits(sign)
    if a.fpclass is FPClass.ZERO or b.fpclass is FPClass.ZERO:
        return fmt.encode_parts(sign, 0, 0)
    return None


def fp_mul(fmt: FPFormat, a_bits: int, b_bits: int, out_fmt: FPFormat | None = None) -> int:
    """Correctly rounded product; ``out_fmt`` allows widening (e.g. FP16*FP16->FP32)."""
    out = out_fmt or fmt
    da, db = fmt.decode(a_bits), fmt.decode(b_bits)
    special = _special_mul(out, da, db)
    if special is not None:
        return special
    sa, ea = decode_exact(fmt, a_bits)
    sb, eb = decode_exact(fmt, b_bits)
    return out.round_fixed(sa * sb, ea + eb)


def fp_add(fmt: FPFormat, a_bits: int, b_bits: int, out_fmt: FPFormat | None = None) -> int:
    """Correctly rounded sum; exact alignment, single rounding."""
    out = out_fmt or fmt
    da, db = fmt.decode(a_bits), fmt.decode(b_bits)
    if da.fpclass is FPClass.NAN or db.fpclass is FPClass.NAN:
        return out.nan_bits()
    if da.fpclass is FPClass.INF or db.fpclass is FPClass.INF:
        if da.fpclass is FPClass.INF and db.fpclass is FPClass.INF and da.sign != db.sign:
            return out.nan_bits()
        sign = da.sign if da.fpclass is FPClass.INF else db.sign
        return out.inf_bits(sign)
    sa, ea = decode_exact(fmt, a_bits)
    sb, eb = decode_exact(fmt, b_bits)
    lo = min(ea, eb)
    total = (sa << (ea - lo)) + (sb << (eb - lo))
    if total == 0:
        # IEEE zero-sign rules under RNE: exact cancellation gives +0, but a
        # sum of two like-signed zeros keeps their sign ((-0)+(-0) = -0).
        sign = 1 if (da.sign and db.sign) else 0
        return out.encode_parts(sign, 0, 0)
    return out.round_fixed(total, lo)


def fp_fma(
    fmt: FPFormat, a_bits: int, b_bits: int, c_bits: int, out_fmt: FPFormat | None = None
) -> int:
    """Fused multiply-add ``a*b + c`` with a single terminal rounding."""
    out = out_fmt or fmt
    for x in (a_bits, b_bits, c_bits):
        if fmt.decode(x).fpclass is FPClass.NAN:
            return out.nan_bits()
    da, db, dc = fmt.decode(a_bits), fmt.decode(b_bits), fmt.decode(c_bits)
    if FPClass.INF in (da.fpclass, db.fpclass, dc.fpclass):
        # Fall back to two correctly rounded steps for special handling only;
        # specials never reach the exact path below.
        p = fp_mul(fmt, a_bits, b_bits, out_fmt=out)
        return fp_add(out, p, _convert(fmt, out, c_bits))
    sa, ea = decode_exact(fmt, a_bits)
    sb, eb = decode_exact(fmt, b_bits)
    sc, ec = decode_exact(fmt, c_bits)
    ep = ea + eb
    lo = min(ep, ec)
    total = ((sa * sb) << (ep - lo)) + (sc << (ec - lo))
    if total == 0:
        return out.encode_parts(0, 0, 0)
    return out.round_fixed(total, lo)


def _convert(src: FPFormat, dst: FPFormat, bits: int) -> int:
    if src is dst:
        return bits
    d = src.decode(bits)
    if d.fpclass is FPClass.NAN:
        return dst.nan_bits()
    if d.fpclass is FPClass.INF:
        return dst.inf_bits(d.sign)
    s, e = decode_exact(src, bits)
    if s == 0:
        return dst.encode_parts(d.sign, 0, 0)
    return dst.round_fixed(s, e)

"""Prepacked IPU emulation engine: decode-once plans + fused diagonal kernels.

The seed emulation (:func:`repro.ipu.seedref.fp_ip_batch_seed`) re-decodes
and re-nibbles its operands on every call, which makes large sweeps pay the
FP decode (~half the runtime) once per *sweep point* instead of once per
*tensor*. This module separates operand preparation from kernel execution:

``PackedOperands``
    caches the decoded signs, exponents and nibble digits of one tensor.
    :func:`pack_operands` builds it in one narrow pass: the fp16/fp32 words
    are split in their own unsigned width
    (:func:`repro.fp.vecfloat.decode_fields`) and written straight into the
    plan dtypes, with no int64 temporaries. A plan is immutable and
    precision-agnostic, so it is reused across every IPU precision,
    accumulator format, serve mode, and batch slice that touches the tensor.
    Its layout is a contract — ``sign`` bool ``(..., n)``, ``exp`` int16
    ``(..., n)``, ``nibbles`` uint8 ``(..., n, K)`` LSB-first. The digits
    are stored nibble-major, as K contiguous ``(..., n)`` planes
    (:attr:`PackedOperands.planes`) behind that view. The kernels read
    the planes, and the golden-model row replay in ``perfbench/`` slices
    the view directly and decodes it with :func:`plan_values`. The engine
    accepts any memory layout of the view; nibble-major is the fast one.

``fp_ip_points``
    executes any number of :class:`KernelPoint` configurations against a
    packed operand pair in one pass. The batch is processed in cache-sized
    row chunks; per chunk the pair preparation is computed once and shared
    by all points, and each point then runs the nibble kernel while the
    chunk is hot in cache. Preparation reads the (possibly broadcast) plan
    views directly: int32 exponent sums, row maxima and alignment shifts,
    product signs as one multiply by a +-1 factor, and one contiguous
    uint8 -> int32 copy of each operand's digit planes.

The kernels are **fused**. One work tensor of shape ``(K, K, rows, n)``
holds every nibble pass of a chunk with the pass axes outermost, so each
numpy op streams long contiguous lanes instead of 9 short strided passes.
All single-cycle points of one work dtype share a single product tensor
computed at the *highest* safe precision of the group; each lower precision
is derived by one scalar in-place shift, which is exact because nested
floors compose (``floor(floor(x/2^a)/2^b) == floor(x/2^(a+b))``). Per-point
lane masking folds into the reduction (``einsum("ijkl,kl->ijk")``), so no
masked temporary is ever materialized. The MC serve loop hoists the product
out of the cycle loop and, when the adder-tree words provably fit (see
``_pair_headroom``), serves two cycles per numpy op by scaling the earlier
cycle's words into the high bits of the shared lanes (int64 multi-nibble
packing). One buffer pool is reused across all chunks and points of a call.

The kernels are bit-identical to the scalar golden model in
:mod:`repro.ipu.ipu` and to the frozen seed kernel in
:mod:`repro.ipu.seedref`: register shifts of nibble pass ``(i, j)`` depend only
on the diagonal ``d = i + j``; left register shifts (exact) may group a
diagonal's adder-tree results before one register update, while right
shifts floor *per pass* exactly as the golden accumulator does. The whole
chunk pipeline runs in int32 whenever the adder-tree words provably fit
(``n * 225 * 2**sp < 2**31``), halving memory traffic for the common
precisions; the int32 gate only selects the storage width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fp.formats import FP16, FP32, FPFormat, np_float_dtype
from repro.fp.vecfloat import decode_fields
from repro.ipu.accumulator import ACC_FRACTION_BITS
from repro.ipu.ehu import serve_cycles
from repro.ipu.theory import MAX_FP16_PRODUCT_SHIFT, PRODUCT_MAGNITUDE_BITS, safe_precision
from repro.nibble.decompose import NIBBLE_BITS, fp_nibble_count, fp_nibble_weight_exp

__all__ = [
    "FPIPBatchResult",
    "KernelPoint",
    "PackedOperands",
    "pack_operands",
    "plan_values",
    "fp_ip_points",
    "DEFAULT_CHUNK_ELEMENTS",
    "default_chunk_rows",
]

# Per-chunk work buffers are (rows, n) in int32/int64; 64Ki elements keeps
# the handful of live buffers comfortably inside a shared L2 slice. This is
# the one chunk-sizing knob: the in-memory path (fp_ip_points), the session
# streaming iterator, and the executor task splitter all derive their row
# blocks from it through default_chunk_rows.
DEFAULT_CHUNK_ELEMENTS = 1 << 16

# Largest |product| of two 5-bit signed nibble operands (-16*15 or 15*15).
_PRODUCT_MAG = (1 << (PRODUCT_MAGNITUDE_BITS - 1)) - 31  # 225


def default_chunk_rows(n: int) -> int:
    """Result rows per work chunk so one chunk holds DEFAULT_CHUNK_ELEMENTS
    lane elements. Every chunked consumer sizes its blocks from this."""
    return max(1, DEFAULT_CHUNK_ELEMENTS // max(n, 1))


@dataclass
class FPIPBatchResult:
    """Batch emulation output.

    ``values`` are the exact accumulator contents as float64 (the register
    fits in 45 bits, so float64 holds it exactly); ``rounded`` is the value
    rounded once into the accumulator format (FP16 or FP32) — NumPy's cast
    performs the same RNE rounding the write-back unit does. All fields
    share the leading (batch) shape of the broadcast operand pair.
    """

    values: np.ndarray          # float64 (...,)
    rounded: np.ndarray         # acc_fmt dtype (...,)
    max_exp: np.ndarray         # int64 (...,)
    alignment_cycles: np.ndarray  # int64 (...,) cycles per nibble iteration
    total_cycles: np.ndarray    # int64 (...,) alignment_cycles * iterations


@dataclass(frozen=True)
class KernelPoint:
    """One kernel configuration: IPU precision, serve mode, output rounding.

    Semantics match :func:`repro.ipu.seedref.fp_ip_batch_seed`:
    ``software_precision`` defaults to ``adder_width`` (the Figure-3
    single-cycle convention) and ``multi_cycle`` engages the MC serve loop
    when the adder is narrower than the software precision.
    """

    adder_width: int
    software_precision: int | None = None
    multi_cycle: bool = False
    acc_fmt: FPFormat = FP32

    def resolve(self) -> "_ResolvedPoint":
        w = self.adder_width
        sw = w if self.software_precision is None else self.software_precision
        sp = safe_precision(w, strict=self.multi_cycle and self.software_precision is not None
                            and w < sw)
        if not self.multi_cycle and sw > w:
            raise ValueError(
                f"single-cycle IPU({w}) cannot reach software precision {sw}; "
                "set multi_cycle=True"
            )
        return _ResolvedPoint(self, sw, sp, self.multi_cycle and w < sw)


@dataclass(frozen=True)
class _ResolvedPoint:
    point: KernelPoint
    software_precision: int
    sp: int
    multi_cycle: bool

    @property
    def up(self) -> int:
        return max(self.sp, 0)

    def work_dtype(self, n: int):
        """int32 when every adder-tree word and its n-lane sum provably fit.

        ``|word| <= 225 << up`` and the int32 path clamps dead shifts at 31,
        which is only floor-equivalent while ``9 + up <= 31``.
        """
        if self.up <= 22 and (n * _PRODUCT_MAG) << self.up < 2**31:
            return np.int32
        return np.int64


class PackedOperands:
    """Decode-once operand plan: sign / exponent / nibble digits per lane.

    ``nibbles`` holds the *unsigned* 4-bit digits (LSB-first) of each FP
    magnitude; product signs are applied per pair at kernel time. Storage is
    deliberately narrow (bool / int16 / uint8) so plans for million-sample
    sweeps stay small and chunk slices upcast quickly.
    """

    __slots__ = ("fmt", "sign", "exp", "nibbles")

    def __init__(self, fmt: FPFormat, sign: np.ndarray, exp: np.ndarray, nibbles: np.ndarray):
        self.fmt = fmt
        self.sign = sign          # bool (..., n)
        self.exp = exp            # int16 (..., n) unbiased exponents
        self.nibbles = nibbles    # uint8 (..., n, K) unsigned digits

    @property
    def shape(self) -> tuple[int, ...]:
        return self.sign.shape

    @property
    def n(self) -> int:
        return self.sign.shape[-1]

    @property
    def k_total(self) -> int:
        return self.nibbles.shape[-1]

    @property
    def planes(self) -> np.ndarray:
        """The nibble digits as ``(K, ..., n)`` digit planes (a view).

        :func:`pack_operands` stores the planes contiguously, so each plane
        is one unit-stride run; ``nibbles`` is the same memory seen as
        ``(..., n, K)``.
        """
        return np.moveaxis(self.nibbles, -1, 0)

    def __len__(self) -> int:
        return len(self.sign)

    def __getitem__(self, idx) -> "PackedOperands":
        """Slice/index the leading (batch) axes; the plan data is shared."""
        return PackedOperands(self.fmt, self.sign[idx], self.exp[idx], self.nibbles[idx])

    def reshape(self, *lead: int) -> "PackedOperands":
        """Reshape the leading axes, keeping the lane (and nibble) axes."""
        shape = tuple(lead) + (self.n,)
        return PackedOperands(
            self.fmt,
            self.sign.reshape(shape),
            self.exp.reshape(shape),
            self.nibbles.reshape(shape + (self.k_total,)),
        )


def pack_operands(values: np.ndarray, fmt: FPFormat = FP16) -> PackedOperands:
    """Cast ``values`` into ``fmt`` and build its :class:`PackedOperands`.

    One narrow pass: :func:`repro.fp.vecfloat.decode_fields` splits the
    words in the format's own unsigned width, and each nibble digit is
    written straight into its own contiguous uint8 plane (nibble-major
    storage behind the ``(..., n, K)`` ``nibbles`` view).
    """
    sign, exp, mag = decode_fields(fmt, values)
    k_total = fp_nibble_count(fmt)
    if fmt.magnitude_bits != NIBBLE_BITS * k_total:
        mag <<= 1  # implicit left shift: n0 gets a trailing zero
    planes = np.empty((k_total,) + mag.shape, dtype=np.uint8)
    for i in range(k_total):
        digit = mag >> (NIBBLE_BITS * i)
        digit &= 0xF
        planes[i] = digit
    return PackedOperands(fmt, sign, exp, np.moveaxis(planes, 0, -1))


def plan_values(plan: PackedOperands) -> np.ndarray:
    """Reconstruct the decoded FP values a plan encodes, as float64.

    Exact inverse of :func:`pack_operands` up to the format cast it performs:
    ``plan_values(pack_operands(x, fmt))`` is ``x`` rounded into ``fmt``.
    """
    fmt = plan.fmt
    mag = np.zeros(plan.shape, dtype=np.int64)
    for i, plane in enumerate(plan.planes):
        mag += plane.astype(np.int64) << (NIBBLE_BITS * i)
    if fmt.magnitude_bits != NIBBLE_BITS * plan.k_total:
        mag >>= 1  # undo the implicit left shift of the low nibble
    vals = mag.astype(np.float64) * np.exp2(
        (plan.exp.astype(np.int64) - fmt.man_bits).astype(np.float64)
    )
    return np.where(plan.sign, -vals, vals)


def fp_ip_points(
    pa: PackedOperands,
    pb: PackedOperands,
    points: list[KernelPoint],
    chunk_rows: int | None = None,
    work_dtype=None,
) -> list[FPIPBatchResult]:
    """Run every kernel point against one operand pair, chunk by chunk.

    ``pa``/``pb`` broadcast against each other over their leading axes (a
    single weight plan row against a batch of activation plans, say); the
    results carry the broadcast leading shape. ``work_dtype`` overrides the
    int32/int64 selection (testing hook).
    """
    if pa.fmt.name != pb.fmt.name:
        raise ValueError(f"operand formats differ: {pa.fmt.name} vs {pb.fmt.name}")
    fmt = pa.fmt
    k_total = pa.k_total
    frac = -2 * fp_nibble_weight_exp(fmt, 0)
    resolved = [p.resolve() for p in points]

    shape = np.broadcast_shapes(pa.shape, pb.shape)
    if len(shape) < 2:
        shape = (1,) * (2 - len(shape)) + shape
    n = shape[-1]
    lead = shape[:-1]
    rows = int(np.prod(lead, dtype=np.int64))

    a_sign, a_exp, a_nib = _broadcast_plan(pa, shape)
    b_sign, b_exp, b_nib = _broadcast_plan(pb, shape)
    a_planes, b_planes = np.moveaxis(a_nib, -1, 0), np.moveaxis(b_nib, -1, 0)

    values = [np.empty(rows) for _ in resolved]
    rounded = [np.empty(rows, np_float_dtype(r.point.acc_fmt)) for r in resolved]
    max_exps = [np.empty(rows, np.int64) for _ in resolved]
    aligns = [np.empty(rows, np.int64) for _ in resolved]

    dim0 = shape[0]
    inner = rows // dim0 if dim0 else 0
    if chunk_rows is None:
        chunk_rows = default_chunk_rows(n)
    block = max(1, chunk_rows // max(inner, 1))
    bufs = _ChunkBuffers()

    for start in range(0, dim0, block):
        stop = min(start + block, dim0)
        r0, r1 = start * inner, stop * inner
        cb = r1 - r0
        chunk = (k_total, stop - start) + shape[1:]
        # int32 straight off the (possibly broadcast) int16 views: exponent
        # sums of two int16 fields cannot overflow, and neither can shifts
        exps = np.add(a_exp[start:stop], b_exp[start:stop], dtype=np.int32).reshape(cb, n)
        neg = np.not_equal(a_sign[start:stop], b_sign[start:stop]).reshape(cb, n)
        max_exp = exps.max(axis=1)                     # (cb,)
        shifts = max_exp[:, None] - exps               # (cb, n) >= 0
        # FP16 shifts stay <= 58, FP32 pairs reach hundreds. A live lane
        # has shifts < software precision, so the clamp changes no live lane
        # while that precision is <= 59; it bounds the masked lanes' counts.
        safe_shift = np.minimum(shifts, MAX_FP16_PRODUCT_SHIFT)

        regs: list[np.ndarray | None] = [None] * len(resolved)
        n_aligns: list[np.ndarray | None] = [None] * len(resolved)

        # plane layout (K, cb, n): every nibble pass is a long contiguous
        # lane run, which is what the fused ops stream; nibble-major plans
        # make each copy below a contiguous uint8 -> int32 cast
        na_p = bufs.get((k_total, cb, n), np.int32, tag="a")
        nb_p = bufs.get((k_total, cb, n), np.int32, tag="b")
        np.copyto(na_p.reshape(chunk), a_planes[:, start:stop])
        np.copyto(nb_p.reshape(chunk), b_planes[:, start:stop])
        na_p *= 1 - 2 * neg.astype(np.int32)  # product signs as a +-1 factor
        groups: dict[type, list[tuple[int, _ResolvedPoint]]] = {}
        for idx, r in enumerate(resolved):
            dtype = _as_dtype(work_dtype) or r.work_dtype(n)
            if r.multi_cycle:
                regs[idx], n_aligns[idx] = _mc_fused(
                    na_p, nb_p, shifts, safe_shift, r, frac, k_total,
                    dtype, bufs)
            else:
                groups.setdefault(dtype, []).append((idx, r))
        for dtype, members in groups.items():
            _single_cycle_fused(
                na_p, nb_p, shifts, safe_shift, members, frac, k_total,
                dtype, bufs, regs)

        for idx, r in enumerate(resolved):
            register = regs[idx]
            n_align = n_aligns[idx]
            if n_align is None:
                n_align = np.ones(cb, dtype=np.int64)
            vals = register.astype(np.float64) * np.exp2(
                (max_exp - ACC_FRACTION_BITS).astype(np.float64)
            )
            values[idx][r0:r1] = vals
            rounded[idx][r0:r1] = vals.astype(rounded[idx].dtype)
            max_exps[idx][r0:r1] = max_exp
            aligns[idx][r0:r1] = n_align

    iterations = k_total * k_total
    return [
        FPIPBatchResult(
            values=values[i].reshape(lead),
            rounded=rounded[i].reshape(lead),
            max_exp=max_exps[i].reshape(lead),
            alignment_cycles=aligns[i].reshape(lead),
            total_cycles=(aligns[i] * iterations).reshape(lead),
        )
        for i in range(len(resolved))
    ]


def _as_dtype(work_dtype):
    """Normalize the ``work_dtype`` testing hook to a scalar type or None."""
    if work_dtype is None:
        return None
    return np.dtype(work_dtype).type


def _broadcast_plan(plan: PackedOperands, shape: tuple[int, ...]):
    """Zero-copy views of the plan arrays broadcast to the pair shape."""
    nd = len(shape)
    sign, exp, nib = plan.sign, plan.exp, plan.nibbles
    pad = nd - sign.ndim
    if pad:
        sign = sign.reshape((1,) * pad + sign.shape)
        exp = exp.reshape((1,) * pad + exp.shape)
        nib = nib.reshape((1,) * pad + nib.shape)
    return (
        np.broadcast_to(sign, shape),
        np.broadcast_to(exp, shape),
        np.broadcast_to(nib, shape + (plan.k_total,)),
    )


def _diagonal_pairs(d: int, k_total: int):
    return [(i, d - i) for i in range(max(0, d - k_total + 1), min(d, k_total - 1) + 1)]


# -- fused numpy kernels ------------------------------------------------------

class _ChunkBuffers:
    """Work-buffer pool shared across all chunks and points of one call.

    Keyed by (shape, dtype, tag) so the product tensor, its scratch twin,
    and the tree accumulator each persist across iterations instead of
    being reallocated per pass.
    Buffers are handed out as-is — every consumer fully overwrites what it
    reads — so reuse cannot alias into results.
    """

    __slots__ = ("_pool",)

    def __init__(self):
        self._pool: dict = {}

    def get(self, shape, dtype, tag=0) -> np.ndarray:
        key = (shape, np.dtype(dtype), tag)
        buf = self._pool.get(key)
        if buf is None:
            buf = self._pool[key] = np.empty(shape, dtype)
        return buf


def _register_from_trees(trees, k_total, frac, sp, coarse, register):
    """Accumulate adder-tree results (``trees[i, j]`` per pass) into the
    register: diagonals with a left (exact) register shift are grouped into
    one update, right shifts floor per pass like the golden model."""
    for d in range(2 * k_total - 1):
        shift_left = 4 * d - frac - sp - coarse + ACC_FRACTION_BITS
        tree_d = None
        for i, j in _diagonal_pairs(d, k_total):
            tree = trees[i, j]
            if shift_left >= 0:
                tree_d = tree.astype(np.int64) if tree_d is None else tree_d + tree
            else:
                register += tree.astype(np.int64) >> (-shift_left)
        if tree_d is not None:
            register += tree_d << shift_left


def _single_cycle_fused(na_p, nb_p, shifts, safe_shift, members, frac, k_total,
                        dtype, bufs, out_regs):
    """All single-cycle points of one work dtype from one product tensor.

    The product is formed once at the group's highest safe precision
    (operand pre-shift by ``up_top``, then the per-lane alignment shift);
    each member is then one scalar in-place shift away — exact, because
    nested floors compose. Lane masks (``shifts >= sw``) are folded into
    the einsum reduction, so masking costs one (cb, n) cast, not a pass
    over the work tensor.
    """
    cb, n = shifts.shape
    members = sorted(members, key=lambda m: -m[1].sp)
    sp_top = members[0][1].sp
    up_top, down_top = max(sp_top, 0), max(-sp_top, 0)
    cap = 31 if dtype is np.int32 else 63

    na_g = bufs.get((k_total, cb, n), dtype)
    np.copyto(na_g, na_p, casting="unsafe")
    if up_top:
        na_g <<= up_top
    nb_g = nb_p
    if nb_p.dtype != np.dtype(dtype):
        nb_g = bufs.get((k_total, cb, n), dtype, tag=1)
        np.copyto(nb_g, nb_p, casting="unsafe")
    prod = bufs.get((k_total, k_total, cb, n), dtype)
    np.multiply(na_g[:, None], nb_g[None, :], out=prod)
    # dead shifts (>= 9 + up) all floor to 0/-1; clamping at the dtype's
    # shift limit keeps the count defined without changing any result bit
    rs = np.minimum(safe_shift + down_top, cap).astype(dtype)
    np.right_shift(prod, rs[None, None], out=prod)

    trees = bufs.get((k_total, k_total, cb), dtype)
    sp_cur = sp_top
    for idx, r in members:
        delta = min(sp_cur - r.sp, cap)
        if delta:
            prod >>= delta
            sp_cur = r.sp
        masked = shifts >= r.software_precision
        if masked.any():
            np.einsum("ijkl,kl->ijk", prod, (~masked).astype(dtype), out=trees)
        else:
            np.einsum("ijkl->ijk", prod, out=trees)
        register = np.zeros(cb, dtype=np.int64)
        _register_from_trees(trees, k_total, frac, r.sp, 0, register)
        out_regs[idx] = register


def _pair_headroom(n: int, up: int, sp: int, dtype) -> bool:
    """True when two serve cycles can share one lane word: scaling the
    earlier cycle's lane words by ``2**sp`` must leave the *n-lane
    adder-tree sum* provably inside the work dtype (the reductions run in
    the work dtype, not in int64), mirroring ``work_dtype``'s gate extended
    by ``sp`` bits."""
    cap_bits, bound = (22, 2**31) if dtype is np.int32 else (53, 2**63)
    return up + sp <= cap_bits and (n * _PRODUCT_MAG) << (up + sp) < bound


def _mc_fused(na_p, nb_p, shifts, safe_shift, r, frac, k_total, dtype, bufs):
    """Fused MC serve-loop kernel: product hoisted out of the cycle loop,
    two cycles per numpy op when the packed words fit (``_pair_headroom``).

    In a paired step the earlier cycle's words are left-shifted by ``sp``
    into the high bits of the shared lanes, so one reduction yields
    ``T_all = tree_c * 2**sp + tree_next`` per pass. Diagonals whose
    register shifts are exact for both cycles update straight from
    ``T_all``; flooring diagonals recover the per-cycle trees exactly
    (``tree_next`` by a masked per-pass reduction, ``tree_c`` by
    subtraction — both integer-exact) and floor per pass per cycle like
    the golden model. Pairing is skipped when a pair would floor more
    than one pass (measured: the recovery cost outweighs the fused op).
    """
    cb, n = shifts.shape
    sw, sp, up = r.software_precision, r.sp, r.up
    cap = 31 if dtype is np.int32 else 63
    masked = shifts >= sw
    cyc = np.where(masked, -1, serve_cycles(shifts, sp))
    n_align = np.maximum(cyc.max(axis=1, initial=-1), 0) + 1
    max_cycles = int(n_align.max(initial=1))

    na_g = bufs.get((k_total, cb, n), dtype)
    np.copyto(na_g, na_p, casting="unsafe")
    if up:
        na_g <<= up
    nb_g = nb_p
    if nb_p.dtype != np.dtype(dtype):
        nb_g = bufs.get((k_total, cb, n), dtype, tag=1)
        np.copyto(nb_g, nb_p, casting="unsafe")
    prod = bufs.get((k_total, k_total, cb, n), dtype)
    np.multiply(na_g[:, None], nb_g[None, :], out=prod)

    pair_fits = _pair_headroom(n, up, sp, dtype)
    shifted = bufs.get((k_total, k_total, cb, n), dtype, tag=1)
    trees = bufs.get((k_total, k_total, cb), dtype)
    register = np.zeros(cb, dtype=np.int64)

    def floor_passes(cn: int) -> int:
        return sum(
            len(_diagonal_pairs(d, k_total))
            for d in range(2 * k_total - 1)
            if 4 * d - frac - sp - cn * sp + ACC_FRACTION_BITS < 0
        )

    c = 0
    while c < max_cycles:
        serving = cyc == c
        if not serving.any():
            c += 1
            continue
        cn = c + 1
        serving_n = (cyc == cn) if cn < max_cycles else None
        paired = (pair_fits and serving_n is not None and serving_n.any()
                  and floor_passes(cn) <= 1)
        if not paired:
            t_c = np.clip(safe_shift - c * sp, 0, cap).astype(dtype)
            np.right_shift(prod, t_c[None, None], out=shifted)
            np.einsum("ijkl,kl->ijk", shifted, serving.astype(dtype), out=trees)
            _register_from_trees(trees, k_total, frac, sp, c * sp, register)
            c += 1
            continue
        either = serving | serving_n
        t_pair = np.where(serving, safe_shift - c * sp,
                          np.clip(safe_shift - cn * sp, 0, cap)).astype(dtype)
        np.right_shift(prod, t_pair[None, None], out=shifted)
        scale = serving.astype(dtype) * dtype(sp)
        np.left_shift(shifted, scale[None, None], out=shifted)
        np.einsum("ijkl,kl->ijk", shifted, either.astype(dtype), out=trees)
        inv_n = serving_n.astype(dtype)
        for d in range(2 * k_total - 1):
            sl_n = 4 * d - frac - sp - cn * sp + ACC_FRACTION_BITS
            sl_c = sl_n + sp
            pairs = _diagonal_pairs(d, k_total)
            if sl_n >= 0:
                tree_d = None
                for i, j in pairs:
                    tree = trees[i, j]
                    tree_d = tree.astype(np.int64) if tree_d is None else tree_d + tree
                register += tree_d << sl_n
                continue
            tree_d_c = None
            for i, j in pairs:
                t_n = np.einsum("kl,kl->k", shifted[i, j], inv_n).astype(np.int64)
                register += t_n >> (-sl_n)
                t_c2 = trees[i, j] - t_n  # == tree_c * 2**sp, exact
                if sl_c >= 0:
                    tree_d_c = t_c2 if tree_d_c is None else tree_d_c + t_c2
                else:
                    register += (t_c2 >> sp) >> (-sl_c)
            if tree_d_c is not None:
                register += (tree_d_c >> sp) << sl_c
        c += 2
    return register, n_align


"""Prepacked engine: bit-identity vs the golden model and the seed kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.formats import FP16, FP32
from repro.fp.vecfloat import decode_array, float_to_bits
from repro.ipu.engine import (
    FPIPBatchResult,
    KernelPoint,
    PackedOperands,
    fp_ip_points,
    pack_operands,
    plan_values,
)
from repro.ipu.ipu import InnerProductUnit, IPUConfig
from repro.ipu.seedref import fp_ip_batch_seed
from repro.ipu.theory import MAX_FP16_PRODUCT_SHIFT
from repro.nibble.decompose import fp_magnitude_nibbles_vec

CONFIGS = [
    (16, 16, False),  # FP16-accumulator single cycle
    (28, 28, False),  # FP32-accumulator single cycle
    (38, 38, False),  # baseline (int64 work dtype)
    (12, 12, False),  # Fig-3 analysis point
    (8, 8, False),    # sub-product window
    (12, 28, True),   # MC-IPU(12) serving FP32 precision
    (16, 28, True),   # MC-IPU(16)
    (20, 28, True),
    (12, 16, True),   # MC-IPU(12) serving FP16 precision
    (10, 28, True),   # many serve cycles (sp = 1)
]


def bits_of(row):
    return [int(v) for v in np.asarray(row, np.float16).view(np.uint16)]


def wide_operands(rng, shape):
    scale = np.exp2(rng.integers(-8, 9, shape))
    a = (rng.laplace(0, 1, shape) * scale).astype(np.float16).astype(np.float64)
    b = rng.normal(0, 1, shape).astype(np.float16).astype(np.float64)
    return a, b


def run_point(pa, pb, *args, **kwargs):
    """One kernel point (``KernelPoint`` arguments) over a packed pair."""
    return fp_ip_points(pa, pb, [KernelPoint(*args, **kwargs)])[0]


def emulate(a, b, *args, **kwargs):
    """One kernel point over raw float operands: pack both, run the engine."""
    return run_point(pack_operands(a), pack_operands(b), *args, **kwargs)


def assert_results_equal(got, want, ctx=""):
    assert np.array_equal(got.values, want.values), ctx
    assert np.array_equal(got.rounded, want.rounded), ctx
    assert got.rounded.dtype == want.rounded.dtype, ctx
    assert np.array_equal(got.max_exp, want.max_exp), ctx
    assert np.array_equal(got.alignment_cycles, want.alignment_cycles), ctx
    assert np.array_equal(got.total_cycles, want.total_cycles), ctx


@pytest.mark.parametrize("w,sw,mc", CONFIGS)
def test_engine_bit_exact_vs_scalar_golden(w, sw, mc):
    rng = np.random.default_rng(w * 1000 + sw)
    n = 8
    a, b = wide_operands(rng, (32, n))
    batch = emulate(a, b, adder_width=w, software_precision=sw, multi_cycle=mc)
    for r in range(len(a)):
        scalar = InnerProductUnit(IPUConfig(n_inputs=n, adder_width=w, software_precision=sw))
        res = scalar.fp_dot(bits_of(a[r]), bits_of(b[r]), FP16, FP32)
        sig, scale = scalar.accumulator.exact()
        assert float(sig) * 2.0**scale == batch.values[r], (w, sw, mc, r)
        assert res.alignment_cycles == batch.alignment_cycles[r]
        assert res.cycles == batch.total_cycles[r]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(CONFIGS), st.sampled_from([FP16, FP32]))
def test_engine_bit_exact_vs_seed_kernel(seed, config, acc_fmt):
    """Property test: the engine reproduces the seed kernel exactly."""
    w, sw, mc = config
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 80)), int(rng.integers(1, 24)))
    a, b = wide_operands(rng, shape)
    want = fp_ip_batch_seed(a, b, w, sw, acc_fmt=acc_fmt, multi_cycle=mc)
    got = emulate(a, b, w, sw, acc_fmt=acc_fmt, multi_cycle=mc)
    assert_results_equal(got, want, (seed, config, acc_fmt.name))


@pytest.mark.parametrize("w", [8, 12, 16, 20, 24, 28, 30, 34, 38])
def test_int32_and_int64_paths_agree(w):
    rng = np.random.default_rng(w)
    a, b = wide_operands(rng, (200, 16))
    pa, pb = pack_operands(a), pack_operands(b)
    point = [KernelPoint(w)]
    narrow = fp_ip_points(pa, pb, point)
    wide = fp_ip_points(pa, pb, point, work_dtype=np.int64)
    assert_results_equal(narrow[0], wide[0], w)


def test_plan_reused_across_precisions_matches_fresh():
    """A cached plan evaluated at two precisions == packing fresh each time."""
    rng = np.random.default_rng(7)
    a, b = wide_operands(rng, (300, 16))
    pa, pb = pack_operands(a), pack_operands(b)
    for w in (12, 28):
        reused = run_point(pa, pb, w)
        fresh = run_point(pack_operands(a), pack_operands(b), w)
        assert_results_equal(reused, fresh, w)
        assert np.array_equal(reused.values, fp_ip_batch_seed(a, b, w).values)


def test_multi_point_call_matches_individual_calls():
    rng = np.random.default_rng(11)
    a, b = wide_operands(rng, (150, 16))
    pa, pb = pack_operands(a), pack_operands(b)
    points = [
        KernelPoint(8), KernelPoint(16, acc_fmt=FP16), KernelPoint(28),
        KernelPoint(12, 28, multi_cycle=True), KernelPoint(38),
    ]
    multi = fp_ip_points(pa, pb, points)
    for p, got in zip(points, multi):
        want = fp_ip_batch_seed(a, b, p.adder_width, p.software_precision,
                                acc_fmt=p.acc_fmt, multi_cycle=p.multi_cycle)
        assert_results_equal(got, want, p)


def test_chunking_is_invisible():
    rng = np.random.default_rng(13)
    a, b = wide_operands(rng, (257, 16))
    pa, pb = pack_operands(a), pack_operands(b)
    whole = fp_ip_points(pa, pb, [KernelPoint(16)])[0]
    tiny = fp_ip_points(pa, pb, [KernelPoint(16)], chunk_rows=7)[0]
    assert_results_equal(whole, tiny)


def test_broadcast_weight_row_against_batch():
    """One packed weight vector against a batch of activation plans."""
    rng = np.random.default_rng(17)
    a, _ = wide_operands(rng, (64, 16))
    wrow = rng.normal(0, 1, 16).astype(np.float16).astype(np.float64)
    pa, pw = pack_operands(a), pack_operands(wrow)
    got = run_point(pa, pw, 16)
    want = fp_ip_batch_seed(a, np.broadcast_to(wrow, a.shape).copy(), 16)
    assert_results_equal(got, want)


# single-cycle points 8 (sub-product window), 12 and 38 (int64 work dtype),
# and MC points 12@28 and 10@28 (sp = 1: many serve cycles)
PAIR_POINTS = [
    KernelPoint(8), KernelPoint(12), KernelPoint(38),
    KernelPoint(12, 28, multi_cycle=True), KernelPoint(10, 28, multi_cycle=True),
]


def flat(res):
    """A result with its leading batch axes flattened to one."""
    return FPIPBatchResult(res.values.ravel(), res.rounded.ravel(), res.max_exp.ravel(),
                           res.alignment_cycles.ravel(), res.total_cycles.ravel())


def seed_results(a, b, points, in_fmt=FP16):
    n = a.shape[-1]
    return [fp_ip_batch_seed(a.reshape(-1, n), b.reshape(-1, n), p.adder_width,
                             p.software_precision, acc_fmt=p.acc_fmt, in_fmt=in_fmt,
                             multi_cycle=p.multi_cycle) for p in points]


def test_conv_shaped_broadcast_pair_across_chunks():
    """A (B, C, n) activation plan against one (C, n) weight row, the shape
    of an emulated conv's kernel call, with chunks that cut through the
    batch: every field equals the materialized pair and the seed kernel."""
    rng = np.random.default_rng(31)
    B, C, n = 7, 5, 16
    a, _ = wide_operands(rng, (B, C, n))
    w, _ = wide_operands(rng, (C, n))
    w_full = np.broadcast_to(w, a.shape).copy()
    pa, pw = pack_operands(a), pack_operands(w)
    chunk_rows = 2 * C + 3  # two batch items per chunk, a ragged last chunk
    got = fp_ip_points(pa, pw, PAIR_POINTS, chunk_rows=chunk_rows)
    full = fp_ip_points(pa, pack_operands(w_full), PAIR_POINTS, chunk_rows=chunk_rows)
    for p, g, f, want in zip(PAIR_POINTS, got, full, seed_results(a, w_full, PAIR_POINTS)):
        assert g.values.shape == (B, C), p
        assert_results_equal(g, f, p)
        assert_results_equal(flat(g), want, p)
    assert max(r.alignment_cycles.max() for r in got) > 1  # MC cycles engaged


def c_ordered(plan):
    """The plan rebuilt with C-ordered (..., n, K) nibbles, as direct
    ``PackedOperands(...)`` callers and gathered-row replays build it."""
    return PackedOperands(plan.fmt, plan.sign, plan.exp, np.ascontiguousarray(plan.nibbles))


def test_plan_layout_independence():
    """Results depend on the plan's values, never on its nibble layout."""
    rng = np.random.default_rng(37)
    a, b = wide_operands(rng, (40, 3, 16))
    pa, pb = pack_operands(a), pack_operands(b)
    want = fp_ip_points(pa, pb, PAIR_POINTS, chunk_rows=20)
    ca, cb = c_ordered(pa), c_ordered(pb)
    assert ca.nibbles.flags.c_contiguous and not pa.nibbles.flags.c_contiguous
    for x, y in [(ca, pb), (pa, cb), (ca, cb)]:
        for w, g in zip(want, fp_ip_points(x, y, PAIR_POINTS, chunk_rows=20)):
            assert_results_equal(g, w)
    rows = rng.choice(40, 9, replace=False)  # fancy-indexed rows, as replayed
    gathered = fp_ip_points(pa[rows], cb[rows], PAIR_POINTS)
    for w, g in zip(fp_ip_points(pack_operands(a[rows]), pack_operands(b[rows]),
                                 PAIR_POINTS), gathered):
        assert_results_equal(g, w)


def test_plan_stores_contiguous_digit_planes():
    """pack_operands stores nibble-major planes behind the (..., n, K) view;
    slicing and reshaping keep them without copying."""
    rng = np.random.default_rng(41)
    a, _ = wide_operands(rng, (10, 4, 16))
    pa = pack_operands(a)
    assert pa.nibbles.shape == a.shape + (pa.k_total,)
    assert pa.planes.shape == (pa.k_total,) + a.shape
    assert pa.planes.flags.c_contiguous
    for view in (pa[2:7], pa[3], pa.reshape(40), pa.reshape(5, 8)):
        assert np.shares_memory(view.nibbles, pa.nibbles)
        assert all(plane.flags.c_contiguous for plane in view.planes)
    assert pa.reshape(40).planes.flags.c_contiguous


def fp32_extreme_operands(rng, shape):
    """fp32 operands whose exponents span subnormal to max: even rows mix
    the whole range (shifts far past the 58-bit clamp), odd rows stay
    within a 48-exponent window (live lanes at every shift below 28)."""
    exps = rng.integers(-149, 128, shape)
    window = rng.integers(-149, 80, (shape[0], 1)) + rng.integers(0, 48, shape)
    exps[1::2] = window[1::2]
    mant = rng.uniform(1.0, 1.9, shape) * rng.choice([-1.0, 1.0], shape)
    values = (mant * np.exp2(exps.astype(np.float64))).astype(np.float32)
    tiny, big = np.finfo(np.float32).smallest_subnormal, np.finfo(np.float32).max
    values[0, :4] = [big, tiny, 0.0, -big]
    return values.astype(np.float64)


@pytest.mark.parametrize("point", [KernelPoint(28)] + PAIR_POINTS,
                         ids=lambda p: f"{p.adder_width}@{p.software_precision or p.adder_width}")
def test_fp32_exponent_extremes_match_int64_reference(point):
    """max_exp and alignment_cycles equal an int64 reference computed from
    plan.exp, with shifts far past the clamp; all fields equal the seed."""
    rng = np.random.default_rng(43)
    a, b = fp32_extreme_operands(rng, (48, 16)), fp32_extreme_operands(rng, (48, 16))
    pa, pb = pack_operands(a, FP32), pack_operands(b, FP32)
    exps = pa.exp.astype(np.int64) + pb.exp.astype(np.int64)
    max_exp = exps.max(axis=1)
    shifts = max_exp[:, None] - exps
    assert shifts.max() > 4 * MAX_FP16_PRODUCT_SHIFT and pa.exp.min() == FP32.min_exp
    r = point.resolve()
    live = shifts < r.software_precision
    if r.multi_cycle:
        cycle = np.maximum(0, -(-shifts // r.sp) - 1)  # ceil(shift / sp) - 1
        cycles = np.where(live, cycle, -1).max(axis=1).clip(0) + 1
        assert cycles.max() > 2
    else:
        cycles = np.ones(len(a), np.int64)
    with np.errstate(over="ignore"):  # products near 2**254 round to inf
        got = fp_ip_points(pa, pb, [point], chunk_rows=16)[0]
        want = seed_results(a, b, [point], FP32)[0]
    assert np.array_equal(got.max_exp, max_exp)
    assert np.array_equal(got.alignment_cycles, cycles)
    assert_results_equal(got, want, point)


def test_leading_batch_shape_preserved():
    rng = np.random.default_rng(19)
    a, b = wide_operands(rng, (6, 5, 16))
    pa, pb = pack_operands(a), pack_operands(b)
    res = run_point(pa, pb, 16)
    assert res.values.shape == (6, 5)
    flat = emulate(a.reshape(30, 16), b.reshape(30, 16), 16)
    assert np.array_equal(res.values.ravel(), flat.values)


def test_packed_operands_slicing_and_reshape():
    rng = np.random.default_rng(23)
    a, _ = wide_operands(rng, (10, 4, 16))
    pa = pack_operands(a)
    assert pa.shape == (10, 4, 16) and pa.n == 16 and pa.k_total == 3
    assert pa[2].shape == (4, 16)
    assert pa.reshape(40).shape == (40, 16)
    row = run_point(pa[2], pack_operands(a[2]), 16)
    assert np.array_equal(row.values, emulate(a[2], a[2], 16).values)


def test_point_validation_matches_seed():
    a = np.ones((2, 8))
    with pytest.raises(ValueError):
        run_point(pack_operands(a), pack_operands(a), 12, 28, multi_cycle=False)
    with pytest.raises(ValueError):
        KernelPoint(3).resolve()  # unbuildably narrow adder


def test_int64_adder_tree_bound():
    """``(n * 225) << up < 2**63``: at n = 16, IPU(60) still matches the
    golden model over extreme fp32 rows, and IPU(64) is refused, with or
    without the ``work_dtype`` override."""
    rng = np.random.default_rng(43)
    a, b = fp32_extreme_operands(rng, (48, 16)), fp32_extreme_operands(rng, (48, 16))
    pa, pb = pack_operands(a, FP32), pack_operands(b, FP32)
    with np.errstate(over="ignore"):  # products near 2**254 round to inf
        got = run_point(pa, pb, 60)
    bits32 = lambda row: [int(v) for v in np.asarray(row, np.float32).view(np.uint32)]
    for r in range(len(a)):
        unit = InnerProductUnit(IPUConfig(n_inputs=16, adder_width=60, software_precision=60))
        with np.errstate(over="ignore"):
            unit.fp_dot(bits32(a[r]), bits32(b[r]), FP32, FP32)
        sig, scale = unit.accumulator.exact()
        assert float(sig) * 2.0**scale == got.values[r], r
    for work_dtype in (None, np.int64, np.int32):
        with pytest.raises(ValueError, match="overflows"):
            fp_ip_points(pa, pb, [KernelPoint(64)], work_dtype=work_dtype)


def test_seed_kernel_refuses_mc_points_past_its_clamp():
    a = np.ones((2, 16))
    with pytest.raises(ValueError, match="software precision 59"):
        fp_ip_batch_seed(a, a, 12, 64, in_fmt=FP32, multi_cycle=True)
    fp_ip_batch_seed(a, a, 12, 59, in_fmt=FP32, multi_cycle=True)


def test_mismatched_formats_rejected():
    a = np.ones((2, 8))
    with pytest.raises(ValueError):
        run_point(pack_operands(a, FP16), pack_operands(a, FP32), 16)


def test_empty_batch():
    z = np.zeros((0, 8))
    res = emulate(z, z, 16)
    assert res.values.shape == (0,)
    assert res.alignment_cycles.shape == (0,)


# -- narrow decode parity ------------------------------------------------------


def finite_fp16_values():
    """Every finite fp16 bit pattern (63,488 of them) as a float16 array."""
    bits = np.arange(1 << 16, dtype=np.uint16)
    return bits[(bits & 0x7C00) != 0x7C00].view(np.float16)


def random_finite_fp32_values(n=1 << 20, seed=29):
    bits = np.random.default_rng(seed).integers(0, 1 << 32, n, dtype=np.uint64).astype(np.uint32)
    edges = np.array([0, 0x80000000, 1, 0x007FFFFF, 0x00800000, 0x7F7FFFFF, 0xFF7FFFFF],
                     dtype=np.uint32)
    bits = np.concatenate([edges, bits])
    return bits[(bits & 0x7F800000) != 0x7F800000].view(np.float32)


def int64_decode(fmt, values):
    """Field split done wide in int64: the reference for the narrow decode."""
    bits = float_to_bits(fmt, values).astype(np.int64)
    exp = (bits >> fmt.man_bits) & ((1 << fmt.exp_bits) - 1)
    man = bits & ((1 << fmt.man_bits) - 1)
    sign = (bits >> (fmt.exp_bits + fmt.man_bits)) & 1
    magnitude = np.where(exp != 0, man | (1 << fmt.man_bits), man)
    unbiased = np.where(exp != 0, exp - fmt.bias, fmt.min_exp)
    return sign, unbiased, magnitude


@pytest.mark.parametrize("fmt,make_values", [(FP16, finite_fp16_values),
                                             (FP32, random_finite_fp32_values)],
                         ids=["fp16-exhaustive", "fp32-random"])
def test_narrow_decode_matches_int64_route(fmt, make_values):
    """pack_operands and decode_array agree with a wide int64 field split
    plus fp_magnitude_nibbles_vec, in values and in dtypes."""
    values = make_values()
    sign, unbiased, magnitude = int64_decode(fmt, values)
    plan = pack_operands(values, fmt)
    assert (plan.sign.dtype, plan.exp.dtype, plan.nibbles.dtype) == (bool, np.int16, np.uint8)
    assert plan.nibbles.shape == values.shape + (plan.k_total,)
    assert np.array_equal(plan.sign, sign.astype(bool))
    assert np.array_equal(plan.exp, unbiased)
    assert np.array_equal(plan.nibbles, fp_magnitude_nibbles_vec(fmt, magnitude))

    dec = decode_array(fmt, values)
    assert (dec.sign.dtype, dec.unbiased_exp.dtype, dec.magnitude.dtype) == (
        np.int8, np.int64, np.int64)
    assert np.array_equal(dec.sign, sign)
    assert np.array_equal(dec.unbiased_exp, unbiased)
    assert np.array_equal(dec.magnitude, magnitude)


def test_plan_values_round_trips_every_finite_fp16():
    values = finite_fp16_values()
    back = plan_values(pack_operands(values))
    assert np.array_equal(back, values.astype(np.float64))
    assert np.array_equal(np.signbit(back), np.signbit(values))


@pytest.mark.parametrize("fmt", [FP16, FP32], ids=lambda f: f.name)
@pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan])
def test_pack_rejects_inf_and_nan(fmt, special):
    values = np.array([[1.0, special, 0.5]])
    with pytest.raises(ValueError, match="INF/NaN"):
        pack_operands(values, fmt)
    with pytest.raises(ValueError, match="INF/NaN"):
        decode_array(fmt, values)

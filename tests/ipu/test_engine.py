"""Prepacked engine: bit-identity vs the golden model and the seed kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.formats import FP16, FP32
from repro.fp.vecfloat import decode_array, float_to_bits
from repro.ipu.engine import KernelPoint, fp_ip_packed, fp_ip_points, pack_operands, plan_values
from repro.ipu.ipu import InnerProductUnit, IPUConfig
from repro.ipu.seedref import fp_ip_batch_seed
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


def emulate(a, b, *args, **kwargs):
    """One kernel point over raw float operands: pack both, run the engine."""
    return fp_ip_packed(pack_operands(a), pack_operands(b), *args, **kwargs)


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
        reused = fp_ip_packed(pa, pb, w)
        fresh = fp_ip_packed(pack_operands(a), pack_operands(b), w)
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
    got = fp_ip_packed(pa, pw, 16)
    want = fp_ip_batch_seed(a, np.broadcast_to(wrow, a.shape).copy(), 16)
    assert_results_equal(got, want)


def test_leading_batch_shape_preserved():
    rng = np.random.default_rng(19)
    a, b = wide_operands(rng, (6, 5, 16))
    pa, pb = pack_operands(a), pack_operands(b)
    res = fp_ip_packed(pa, pb, 16)
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
    row = fp_ip_packed(pa[2], pack_operands(a[2]), 16)
    assert np.array_equal(row.values, emulate(a[2], a[2], 16).values)


def test_point_validation_matches_seed():
    a = np.ones((2, 8))
    with pytest.raises(ValueError):
        fp_ip_packed(pack_operands(a), pack_operands(a), 12, 28, multi_cycle=False)
    with pytest.raises(ValueError):
        KernelPoint(3).resolve()  # unbuildably narrow adder


def test_mismatched_formats_rejected():
    a = np.ones((2, 8))
    with pytest.raises(ValueError):
        fp_ip_packed(pack_operands(a, FP16), pack_operands(a, FP32), 16)


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

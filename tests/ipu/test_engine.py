"""Prepacked engine: bit-identity vs the golden model and the seed kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.formats import FP16, FP32
from repro.ipu.engine import KernelPoint, fp_ip_packed, fp_ip_points, pack_operands
from repro.ipu.ipu import InnerProductUnit, IPUConfig
from repro.ipu.seedref import fp_ip_batch_seed

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

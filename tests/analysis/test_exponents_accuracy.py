"""Exponent histograms (Fig 9) and emulated-inference accuracy (§3.1)."""

import numpy as np
import pytest

from repro.analysis.accuracy import emulated_conv2d, emulated_forward
from repro.analysis.exponents import alignment_histogram, histogram_from_model
from repro.fp.formats import FP16, FP32
from repro.nn.zoo import resnet18_convs
import repro.nn.functional as F


class TestAlignmentHistogram:
    @pytest.fixture(scope="class")
    def histograms(self):
        layers = resnet18_convs()[2:8]
        fwd = alignment_histogram(layers, 8, "forward", samples_per_layer=800, rng=0)
        bwd = alignment_histogram(layers, 8, "backward", samples_per_layer=800, rng=0)
        return fwd, bwd

    def test_density_normalized(self, histograms):
        fwd, bwd = histograms
        assert fwd.density.sum() == pytest.approx(1.0)
        assert bwd.density.sum() == pytest.approx(1.0)

    def test_forward_clustered_near_zero(self, histograms):
        """Paper Fig 9a: forward diffs cluster around 0, ~1% above 8."""
        fwd, _ = histograms
        assert fwd.median() <= 3
        assert 0.001 <= fwd.fraction_above(8) <= 0.04

    def test_backward_much_wider(self, histograms):
        """Paper Fig 9b: backward has a far wider distribution."""
        fwd, bwd = histograms
        assert bwd.fraction_above(8) > 4 * fwd.fraction_above(8)
        assert bwd.median() >= fwd.median()

    def test_rows_render(self, histograms):
        fwd, _ = histograms
        rows = fwd.rows()
        assert rows[0][0] == 0
        assert all(0 <= frac <= 1 for _, frac in rows)


class TestHistogramFromModel:
    # counts per alignment size 0..16 (last bin: >= 16) for the fixed-seed
    # tiny_convnet capture below
    PINNED = {
        "forward": [539, 314, 292, 223, 161, 120, 67, 44, 25, 7, 3, 6, 2, 0, 0, 0, 0],
        "backward": [522, 262, 257, 261, 297, 272, 273, 139, 86, 58, 28, 12, 5,
                     2, 1, 2, 1],
    }

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_counts_pinned(self, direction):
        from repro.nn.models import tiny_convnet

        rng = np.random.default_rng(3)
        images = rng.normal(0, 1, (4, 3, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 4, 4)
        counts = np.array(self.PINNED[direction])
        hist = histogram_from_model(
            tiny_convnet(rng=2), images, labels, n_inputs=8, samples=400,
            rng=5, direction=direction, max_bin=16)
        assert np.array_equal(hist.density, counts / counts.sum())


class TestEmulatedConv:
    def test_wide_precision_matches_float32_conv(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        w = (rng.normal(size=(4, 3, 3, 3)) * 0.1).astype(np.float32)
        ref, _ = F.conv2d(
            x.astype(np.float16).astype(np.float32),
            w.astype(np.float16).astype(np.float32),
            stride=1, padding=1,
        )
        got = emulated_conv2d(x, w, None, 1, 1, adder_width=38)
        assert np.allclose(got, ref, rtol=1e-4, atol=1e-5)

    def test_low_precision_increases_error_monotonically(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 8, 6, 6)).astype(np.float32)
        w = (rng.normal(size=(8, 8, 3, 3)) * 0.1).astype(np.float32)
        ref = emulated_conv2d(x, w, None, 1, 1, adder_width=38)
        errs = []
        for width in (8, 12, 16, 28):
            got = emulated_conv2d(x, w, None, 1, 1, adder_width=width)
            errs.append(float(np.abs(got - ref).mean()))
        assert errs[0] > errs[-1]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_bias_applied(self):
        x = np.zeros((1, 1, 4, 4), np.float32)
        w = np.zeros((2, 1, 1, 1), np.float32)
        got = emulated_conv2d(x, w, np.array([1.0, -1.0], np.float32), 1, 0, 16)
        assert np.all(got[0, 0] == 1.0) and np.all(got[0, 1] == -1.0)

    def test_stride_and_padding_shapes(self):
        x = np.zeros((1, 2, 9, 9), np.float32)
        w = np.zeros((3, 2, 3, 3), np.float32)
        got = emulated_conv2d(x, w, None, 2, 1, 16)
        assert got.shape == (1, 3, 5, 5)

    def test_fp16_accumulator_coarser_than_fp32(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 4, 5, 5)).astype(np.float32)
        w = (rng.normal(size=(4, 4, 3, 3)) * 0.1).astype(np.float32)
        ref = emulated_conv2d(x, w, None, 1, 1, 38, FP32)
        got16 = emulated_conv2d(x, w, None, 1, 1, 38, FP16)
        # fp16 accumulation quantizes the result
        assert np.abs(got16 - ref).max() > 0

    def test_bit_identical_to_seed_broadcast_path(self):
        """The per-channel plan iteration reproduces the seed conv exactly
        (which folded output channels into one K-fold broadcast batch)."""
        from repro.ipu.seedref import fp_ip_batch_seed

        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3, 7, 7)).astype(np.float32)
        w = (rng.normal(size=(5, 3, 3, 3)) * 0.2).astype(np.float32)
        bias = rng.normal(size=5).astype(np.float32)
        stride, padding, n_ipu = 1, 1, 16
        k = w.shape[0]
        cols = F.im2col(x, 3, 3, stride, padding)          # (N, D, P)
        d, p = cols.shape[1], cols.shape[2]
        chunks = -(-d // n_ipu)
        pad = chunks * n_ipu - d
        cols = np.pad(cols, ((0, 0), (0, pad), (0, 0)))
        wmat = np.pad(w.reshape(k, d), ((0, 0), (0, pad)))
        acts = np.moveaxis(cols, 1, 2).reshape(-1, chunks, n_ipu)
        wchunks = wmat.reshape(k, chunks, n_ipu)
        for adder_width, acc_fmt in ((8, FP32), (16, FP16), (28, FP32), (38, FP32)):
            a_flat = np.broadcast_to(acts[None], (k,) + acts.shape).reshape(-1, n_ipu)
            b_flat = np.broadcast_to(wchunks[:, None], (k,) + acts.shape).reshape(-1, n_ipu)
            res = fp_ip_batch_seed(a_flat, b_flat, adder_width, acc_fmt=acc_fmt)
            out = res.values.reshape(k, -1, chunks).sum(axis=2)
            out_t = out.T.reshape(2, p, k).transpose(0, 2, 1)
            if acc_fmt.name == "fp32":
                out_t = out_t.astype(np.float32)
            else:
                out_t = out_t.astype(np.float16).astype(np.float32)
            want = out_t.reshape(2, k, 7, 7) + bias[None, :, None, None]
            got = emulated_conv2d(x, w, bias, stride, padding, adder_width, acc_fmt)
            assert np.array_equal(got, want), (adder_width, acc_fmt.name)

    def test_collapsed_output_rejected(self):
        x = np.zeros((1, 1, 2, 2), np.float32)
        w = np.zeros((1, 1, 3, 3), np.float32)
        with pytest.raises(ValueError):
            emulated_conv2d(x, w, None, 1, 0, 16)

class TestEmulatedForward:
    def test_reference_path_equals_model(self):
        from repro.nn.models import tiny_convnet

        model = tiny_convnet(rng=3)
        model.eval()
        x = np.random.default_rng(4).normal(size=(2, 3, 16, 16)).astype(np.float32)
        ref = model(x)
        got = emulated_forward(model, x, adder_width=None)
        assert np.allclose(got, ref)

    def test_high_precision_close_to_reference(self):
        from repro.nn.models import tiny_convnet

        model = tiny_convnet(rng=5)
        model.eval()
        x = np.random.default_rng(6).normal(size=(2, 3, 16, 16)).astype(np.float32)
        ref = model(x)
        got = emulated_forward(model, x, adder_width=28)
        # fp16-quantized operands: small but bounded deviation in logits
        assert np.abs(got - ref).max() < 0.1

    def test_residual_model_supported(self):
        from repro.nn.models import tiny_resnet

        model = tiny_resnet(width=8, rng=7)
        model.eval()
        x = np.random.default_rng(8).normal(size=(1, 3, 16, 16)).astype(np.float32)
        got = emulated_forward(model, x, adder_width=16)
        assert got.shape == (1, 4)
        assert np.all(np.isfinite(got))

"""NumPy DNN ops: forward correctness vs scipy, backward vs numerical grads,
and the conv matmul plan bit for bit against the einsum formulas."""

import hashlib

import numpy as np
import pytest
from scipy import signal

import repro.nn.functional as F
from repro.nn.datasets import make_pattern_dataset
from repro.nn.layers import BatchNorm2d
from repro.nn.models import tiny_convnet, tiny_resnet
from repro.nn.training import capture_backward_tensors, train


def numgrad(f, x, eps=1e-3):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        fp = f()
        x[i] = old - eps
        fm = f()
        x[i] = old
        g[i] = (fp - fm) / (2 * eps)
    return g


class TestConvForward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_scipy_correlate(self, stride, padding):
        rng = np.random.default_rng(stride * 10 + padding)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        out, _ = F.conv2d(x, w, stride=stride, padding=padding)
        for n in range(2):
            for k in range(4):
                full = sum(
                    signal.correlate2d(
                        np.pad(x[n, c], padding), w[k, c], mode="valid"
                    )
                    for c in range(3)
                )
                assert np.allclose(out[n, k], full[::stride, ::stride], atol=1e-10)

    def test_bias(self):
        x = np.zeros((1, 1, 3, 3))
        w = np.zeros((2, 1, 1, 1))
        out, _ = F.conv2d(x, w, bias=np.array([1.5, -2.0]))
        assert np.all(out[0, 0] == 1.5) and np.all(out[0, 1] == -2.0)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            F.conv2d(np.zeros((1, 3, 4, 4)), np.zeros((2, 4, 3, 3)))

    def test_collapsing_output_rejected(self):
        with pytest.raises(ValueError):
            F.conv2d(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 5, 5)))

    def test_output_shape(self):
        out, _ = F.conv2d(np.zeros((2, 3, 11, 7)), np.zeros((5, 3, 3, 3)), stride=2, padding=1)
        assert out.shape == (2, 5, 6, 4)


class TestConvBackward:
    def test_gradients_match_numerical(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        dout = rng.normal(size=(2, 3, 3, 3))

        def loss():
            o, _ = F.conv2d(x, w, stride=2, padding=1)
            return float((o * dout).sum())

        _, cache = F.conv2d(x, w, stride=2, padding=1)
        dx, dw, db = F.conv2d_backward(dout, cache)
        assert np.allclose(dx, numgrad(loss, x), atol=1e-5)
        assert np.allclose(dw, numgrad(loss, w), atol=1e-5)
        assert np.allclose(db, dout.sum(axis=(0, 2, 3)))


def fold_reference(cols, x_shape, kh, kw, stride, padding):
    """col2im as a plain NCHW scatter-add, overlaps in (i, j) order."""
    n, c, h, w = x_shape
    ho = F.conv_output_size(h, kh, stride, padding)
    wo = F.conv_output_size(w, kw, stride, padding)
    out = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += cols6[:, :, i, j]
    if padding:
        out = out[:, :, padding : padding + h, padding : padding + w]
    return out


def einsum_conv2d(x, weight, bias=None, stride=1, padding=0):
    """The oracle: conv2d as the einsum formulas the matmul plan replaces."""
    k, c, kh, kw = weight.shape
    ho = F.conv_output_size(x.shape[2], kh, stride, padding)
    wo = F.conv_output_size(x.shape[3], kw, stride, padding)
    cols = F.im2col(x, kh, kw, stride, padding)              # (N, D, P)
    wmat = weight.reshape(k, -1)
    out = np.einsum("kd,ndp->nkp", wmat, cols, optimize=True)
    if bias is not None:
        out += bias[None, :, None]
    return out.reshape(x.shape[0], k, ho, wo), (x.shape, cols, wmat, weight.shape, stride, padding)


def einsum_conv2d_backward(dout, cache):
    x_shape, cols, wmat, w_shape, stride, padding = cache
    n, k = dout.shape[0], dout.shape[1]
    dmat = dout.reshape(n, k, -1)
    dw = np.einsum("nkp,ndp->kd", dmat, cols, optimize=True).reshape(w_shape)
    dcols = np.einsum("kd,nkp->ndp", wmat, dmat, optimize=True)
    dx = fold_reference(dcols, x_shape, w_shape[2], w_shape[3], stride, padding)
    return dx, dw, dmat.sum(axis=(0, 2))


def short_training_digest(build):
    """Two epochs of training: sha256 of the weights and BN running stats,
    plus the training result."""
    # 52 samples split 44/8: one 32-image batch and a 12-image tail
    dataset = make_pattern_dataset(n_samples=52, rng=3)
    model = build(rng=4)
    result = train(model, dataset, epochs=2, rng=5)
    digest = hashlib.sha256()
    for p in model.parameters():
        digest.update(p.data.tobytes())
    stack = [model]
    while stack:
        layer = stack.pop()
        if isinstance(layer, BatchNorm2d):
            digest.update(layer.running_mean.tobytes() + layer.running_var.tobytes())
        stack.extend(getattr(layer, "children", []))
    return digest.hexdigest(), result


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.strides == want.strides
    assert np.array_equal(got, want)


# (C, K, H, kernel, stride, padding) of the tiny models' conv layers
LAYER_SHAPES = {
    "stem-c3": (3, 16, 16, 3, 1, 1),
    "3x3s1-k16": (16, 16, 16, 3, 1, 1),
    "3x3s1-k32": (32, 32, 8, 3, 1, 1),
    "3x3s1-k64": (64, 64, 4, 3, 1, 1),
    "3x3s2-k32": (16, 32, 16, 3, 2, 1),
    "3x3s2-k64": (32, 64, 8, 3, 2, 1),
    "1x1s2-k32": (16, 32, 16, 1, 2, 0),
    "1x1s2-k64": (32, 64, 8, 1, 2, 0),
}


class TestEinsumPlan:
    """conv2d/conv2d_backward make einsum's own matmul calls: every output
    matches the einsum oracle in value, dtype and strides."""

    @pytest.mark.parametrize("batch", [1, 12, 32, 64])
    @pytest.mark.parametrize("layer", sorted(LAYER_SHAPES))
    @pytest.mark.parametrize("x_dtype, w_dtype", [
        (np.float32, np.float32), (np.float32, np.float64), (np.float64, np.float64)])
    def test_matches_einsum_oracle(self, layer, batch, x_dtype, w_dtype):
        c, k, h, kernel, stride, padding = LAYER_SHAPES[layer]
        rng = np.random.default_rng(batch)
        # channels-last memory, as BN/ReLU pass a conv output on, for batches
        # 12 and 64; plain NCHW, as images and pooled maps arrive, for 1 and 32
        x = rng.normal(size=(batch, h, h, c)).astype(x_dtype).transpose(0, 3, 1, 2)
        if batch in (1, 32):
            x = np.ascontiguousarray(x)
        w = rng.normal(size=(k, c, kernel, kernel)).astype(w_dtype)
        out, cache = F.conv2d(x, w, stride=stride, padding=padding)
        want_out, want_cache = einsum_conv2d(x, w, stride=stride, padding=padding)
        assert_same_array(out, want_out)
        dout = rng.normal(size=out.shape).astype(out.dtype)
        for got, want in zip(F.conv2d_backward(dout, cache),
                             einsum_conv2d_backward(dout, want_cache)):
            assert_same_array(got, want)

    @pytest.mark.parametrize("x_shape, kernel, stride, padding", [
        ((2, 3, 7, 5), 3, 1, 1), ((3, 4, 8, 8), 3, 2, 1), ((2, 2, 6, 6), 1, 2, 0),
        ((8, 1, 8, 8), 2, 2, 0)])  # the last is a pooling fold
    def test_col2im_matches_reference_fold(self, x_shape, kernel, stride, padding):
        cols = F.im2col(np.random.default_rng(0).normal(size=x_shape),
                        kernel, kernel, stride, padding)
        for c in (cols, cols.transpose(0, 2, 1).copy().transpose(0, 2, 1)):
            assert_same_array(F.col2im(c, x_shape, kernel, kernel, stride, padding),
                              fold_reference(c, x_shape, kernel, kernel, stride, padding))

    @pytest.mark.parametrize("build", [tiny_convnet, tiny_resnet])
    def test_short_training_matches_einsum_oracle(self, build, monkeypatch):
        """A few batches, with a 12-image tail, train to the same bytes."""
        got = short_training_digest(build)
        monkeypatch.setattr(F, "conv2d", einsum_conv2d)
        monkeypatch.setattr(F, "conv2d_backward", einsum_conv2d_backward)
        assert got == short_training_digest(build)

    def test_capture_backward_tensors_match_einsum_oracle(self, monkeypatch):
        dataset = make_pattern_dataset(n_samples=12, rng=6)

        def run():
            model = tiny_resnet(rng=7)
            captured = capture_backward_tensors(model, dataset.images, dataset.labels)
            return [(t["input"], t["grad_output"]) for t in captured]

        got = run()
        monkeypatch.setattr(F, "conv2d", einsum_conv2d)
        monkeypatch.setattr(F, "conv2d_backward", einsum_conv2d_backward)
        for pair, want_pair in zip(got, run(), strict=True):
            for a, b in zip(pair, want_pair):
                assert_same_array(a, b)


class TestReluMask:
    def test_mask_is_in_the_input_dtype(self):
        for dtype in (np.float32, np.float64):
            x = np.array([-1.0, -0.0, 0.0, 2.0, np.nan], dtype)
            out, mask = F.relu(x)
            assert mask.dtype == dtype
            assert mask.tolist() == [0.0, 0.0, 0.0, 1.0, 0.0]

    @pytest.mark.parametrize("build", [tiny_convnet, tiny_resnet])
    def test_short_training_matches_bool_mask_oracle(self, build, monkeypatch):
        """The float mask trains to the bytes a bool mask trained to."""
        got = short_training_digest(build)
        monkeypatch.setattr(F, "relu", lambda x: (np.maximum(x, 0), x > 0))
        monkeypatch.setattr(F, "relu_backward", lambda dout, mask: dout * mask)
        assert got == short_training_digest(build)


class TestIm2col:
    def test_round_trip_counts_overlaps(self):
        x = np.ones((1, 1, 4, 4))
        cols = F.im2col(x, 3, 3, 1, 1)
        back = F.col2im(cols, x.shape, 3, 3, 1, 1)
        # each pixel regenerated once per window covering it
        assert back[0, 0, 1, 1] == 9.0
        assert back[0, 0, 0, 0] == 4.0

    def test_column_content_is_receptive_field(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        cols = F.im2col(x, 2, 2, 1, 0)
        assert cols.shape == (1, 4, 9)
        np.testing.assert_array_equal(cols[0, :, 0], [0, 1, 4, 5])

    @pytest.mark.parametrize("stride, padding", [(1, 1), (2, 0), (2, 1)])
    def test_layouts_hold_the_same_windows(self, stride, padding):
        x = np.random.default_rng(7).normal(size=(3, 2, 6, 5))
        ndp = F.im2col(x, 3, 3, stride, padding)
        npd = F.im2col(x, 3, 3, stride, padding, layout="npd")
        dnp = F.im2col(x, 3, 3, stride, padding, layout="dnp")
        n, d, p = ndp.shape
        assert npd.flags.c_contiguous and dnp.flags.c_contiguous
        np.testing.assert_array_equal(npd, ndp.transpose(0, 2, 1))
        np.testing.assert_array_equal(dnp, ndp.transpose(1, 0, 2).reshape(d, n * p))

    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError):
            F.im2col(np.zeros((1, 1, 4, 4)), 2, 2, 1, 0, layout="pnd")


class TestPooling:
    def test_max_pool_forward(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out, _ = F.max_pool2d(x, 2)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out, cache = F.max_pool2d(x, 2)
        dx = F.max_pool2d_backward(np.ones_like(out), cache)
        assert dx.sum() == 4
        assert dx[0, 0, 1, 1] == 1 and dx[0, 0, 0, 0] == 0

    def test_avg_pool_gradcheck(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 4, 4))
        dout = rng.normal(size=(1, 2, 2, 2))

        def loss():
            o, _ = F.avg_pool2d(x, 2)
            return float((o * dout).sum())

        _, cache = F.avg_pool2d(x, 2)
        dx = F.avg_pool2d_backward(dout, cache)
        assert np.allclose(dx, numgrad(loss, x), atol=1e-6)


class TestBatchNorm:
    def test_normalizes_in_training(self):
        rng = np.random.default_rng(2)
        x = rng.normal(3, 2, size=(8, 4, 5, 5))
        gamma, beta = np.ones(4), np.zeros(4)
        rm, rv = np.zeros(4, np.float32), np.ones(4, np.float32)
        out, _ = F.batch_norm(x, gamma, beta, rm, rv, training=True)
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0, atol=1e-7)
        assert np.allclose(out.var(axis=(0, 2, 3)), 1, atol=1e-3)

    def test_running_stats_updated(self):
        x = np.full((4, 1, 2, 2), 10.0)
        rm, rv = np.zeros(1, np.float32), np.ones(1, np.float32)
        F.batch_norm(x, np.ones(1), np.zeros(1), rm, rv, training=True)
        assert rm[0] == pytest.approx(1.0)  # 0.9*0 + 0.1*10

    def test_eval_uses_running_stats(self):
        x = np.full((2, 1, 2, 2), 4.0)
        rm = np.array([4.0], np.float32)
        rv = np.array([1.0], np.float32)
        out, _ = F.batch_norm(x, np.ones(1), np.zeros(1), rm, rv, training=False)
        assert np.allclose(out, 0, atol=1e-3)

    def test_backward_gradcheck(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 2, 3, 3))
        dout = rng.normal(size=(4, 2, 3, 3))
        gamma, beta = np.array([1.3, 0.7]), np.array([0.1, -0.2])

        def loss():
            rm, rv = np.zeros(2, np.float32), np.ones(2, np.float32)
            o, _ = F.batch_norm(x, gamma, beta, rm, rv, training=True)
            return float((o * dout).sum())

        rm, rv = np.zeros(2, np.float32), np.ones(2, np.float32)
        _, cache = F.batch_norm(x, gamma, beta, rm, rv, training=True)
        dx, dgamma, dbeta = F.batch_norm_backward(dout, cache)
        assert np.allclose(dx, numgrad(loss, x), atol=1e-4)
        assert np.allclose(dgamma, numgrad(loss, gamma), atol=1e-4)
        assert np.allclose(dbeta, numgrad(loss, beta), atol=1e-4)


class TestLossAndLinear:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        p = F.softmax(rng.normal(size=(10, 5)) * 50)
        assert np.allclose(p.sum(axis=1), 1)
        assert np.all(p >= 0)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert F.cross_entropy(logits, np.array([0, 1])) < 1e-6

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, 6)

        def loss():
            return F.cross_entropy(logits, labels)

        g = F.cross_entropy_backward(logits.copy(), labels)
        assert np.allclose(g, numgrad(loss, logits), atol=1e-6)

    def test_linear_gradcheck(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 5))
        w = rng.normal(size=(3, 5))
        dout = rng.normal(size=(4, 3))

        def loss():
            o, _ = F.linear(x, w)
            return float((o * dout).sum())

        _, cache = F.linear(x, w)
        dx, dw, db = F.linear_backward(dout, cache)
        assert np.allclose(dx, numgrad(loss, x), atol=1e-6)
        assert np.allclose(dw, numgrad(loss, w), atol=1e-6)

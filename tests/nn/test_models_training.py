"""Layers, models, datasets, training loop and quantization."""

import numpy as np
import pytest

from repro.nn.datasets import make_pattern_dataset
from repro.nn.layers import Conv2d, Layer, ReLU, Sequential
from repro.nn.models import model_conv_layers, tiny_convnet, tiny_resnet
from repro.nn.quantize import fake_quantize_fp
from repro.nn.training import SGD, capture_backward_tensors, evaluate_accuracy, train
import repro.nn.functional as F


class TestDatasets:
    def test_pattern_dataset_shapes(self):
        ds = make_pattern_dataset(n_samples=64, image_size=12, rng=0)
        assert ds.images.shape == (64, 3, 12, 12)
        assert ds.labels.shape == (64,)
        assert ds.images.dtype == np.float32

    def test_split(self):
        ds = make_pattern_dataset(n_samples=100, rng=1)
        train_set, test_set = ds.split(0.8)
        assert len(train_set) == 80 and len(test_set) == 20

    def test_batches_cover_everything(self):
        ds = make_pattern_dataset(n_samples=50, rng=2)
        seen = sum(len(y) for _, y in ds.batches(16, rng=0))
        assert seen == 50

    def test_normalization(self):
        ds = make_pattern_dataset(n_samples=128, rng=3)
        assert abs(float(ds.images.mean())) < 0.05
        assert 0.8 < float(ds.images.std()) < 1.2


class TestModels:
    def test_tiny_convnet_forward_shape(self):
        model = tiny_convnet(rng=0)
        out = model(np.zeros((2, 3, 16, 16), np.float32))
        assert out.shape == (2, 4)

    def test_tiny_resnet_forward_shape(self):
        model = tiny_resnet(rng=0)
        out = model(np.zeros((2, 3, 16, 16), np.float32))
        assert out.shape == (2, 4)

    def test_conv_layer_collection(self):
        assert len(model_conv_layers(tiny_convnet(rng=0))) == 4
        # stem + 6 blocks x 2 convs + 2 downsample convs = 15
        assert len(model_conv_layers(tiny_resnet(rng=0))) == 15

    def test_parameters_unique(self):
        model = tiny_resnet(rng=0)
        params = model.parameters()
        assert len({id(p) for p in params}) == len(params)

    def test_backward_shapes(self):
        model = tiny_resnet(rng=1)
        x = np.random.default_rng(0).normal(size=(2, 3, 16, 16)).astype(np.float32)
        logits = model(x)
        dx = model.backward(np.ones_like(logits))
        assert dx.shape == x.shape

    @pytest.mark.parametrize("build", [tiny_convnet, tiny_resnet])
    def test_eval_forward_keeps_no_backward_cache(self, build):
        def layers(layer):
            yield layer
            for value in vars(layer).values():
                for child in value if isinstance(value, list) else [value]:
                    if isinstance(child, Layer):
                        yield from layers(child)

        model = build(rng=0)
        x = np.random.default_rng(0).normal(size=(2, 3, 16, 16)).astype(np.float32)
        model(x)
        assert any(getattr(layer, "_cache", None) is not None for layer in layers(model))
        model.eval()
        model(x)
        assert all(getattr(layer, "_cache", None) is None for layer in layers(model))
        assert all(conv.last_input is not None for conv in model_conv_layers(model))

    def test_residual_gradient_flow(self):
        """Both the main path and the shortcut receive gradients."""
        model = tiny_resnet(rng=2)
        x = np.random.default_rng(1).normal(size=(2, 3, 16, 16)).astype(np.float32)
        logits = model(x)
        model.backward(F.cross_entropy_backward(logits, np.array([0, 1])))
        for p in model.parameters():
            if p.name.endswith("gamma") or "conv" in p.name or "down" in p.name:
                assert np.any(p.grad != 0), f"{p.name} got no gradient"


class TestTraining:
    def test_loss_decreases(self):
        ds = make_pattern_dataset(n_samples=256, rng=4)
        model = tiny_convnet(rng=5)
        result = train(model, ds, epochs=3, rng=6)
        assert result.losses[-1] < result.losses[0]

    def test_accuracy_beats_chance(self):
        ds = make_pattern_dataset(n_samples=320, rng=7)
        model = tiny_convnet(rng=8)
        result = train(model, ds, epochs=4, rng=9)
        assert result.test_accuracy > 0.5  # 4 classes -> chance is 0.25

    def test_sgd_momentum_updates(self):
        from repro.nn.tensor import Parameter

        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, momentum=0.5)
        p.grad[...] = 1.0
        opt.step()
        assert p.data[0] == pytest.approx(0.9)
        p.grad[...] = 0.0
        opt.step()  # momentum keeps moving
        assert p.data[0] == pytest.approx(0.85)

    def test_capture_backward_tensors(self):
        ds = make_pattern_dataset(n_samples=32, rng=10)
        model = tiny_convnet(rng=11)
        captured = capture_backward_tensors(model, ds.images[:8], ds.labels[:8])
        assert len(captured) == 4
        for entry in captured:
            assert entry["input"] is not None
            assert entry["grad_output"] is not None
            assert entry["weight"].ndim == 4
            assert np.any(entry["grad_output"] != 0)


class TestQuantize:
    @pytest.mark.parametrize("fmt, dtype", [("fp16", np.float16), ("fp32", np.float32)])
    def test_fake_quantize_fp_pinned_over_every_finite_fp16(self, fmt, dtype):
        """Every finite fp16 value (both zeros included) is a fixed point, and
        values nudged off the fp16 grid round to nearest-even like a NumPy
        cast. Bit patterns are compared, so the sign of zero is pinned."""
        words = np.arange(1 << 16, dtype=np.uint16).view(np.float16)
        grid = words[np.isfinite(words)].astype(np.float64)
        got = fake_quantize_fp(grid, fmt)
        assert np.array_equal(got.view(np.int64), grid.view(np.int64))
        nudged = grid * (1 + 2.0 ** -13)
        nudged = nudged[np.abs(nudged) <= 65504]
        want = nudged.astype(dtype).astype(np.float64)
        got = fake_quantize_fp(nudged, fmt)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_fake_quantize_fp_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fake_quantize_fp(np.array([np.inf]), "fp16")

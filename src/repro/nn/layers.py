"""Layer objects wrapping :mod:`repro.nn.functional` with parameter storage.

Each layer records the tensors the accelerator experiments need: its last
input activation, its weights, and (after a backward pass) the error tensor
flowing into it. The experiment code samples these to drive the IPU error
analysis and the tile cycle simulation with realistic value distributions.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Parameter
from repro.utils.rng import as_generator

__all__ = [
    "Layer",
    "Conv2d",
    "Linear",
    "ReLU",
    "BatchNorm2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool",
    "Flatten",
    "Sequential",
    "Residual",
]


class Layer:
    """Base layer: forward/backward with cached state."""

    training: bool = True

    def parameters(self) -> list[Parameter]:
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def train(self, mode: bool = True) -> "Layer":
        self.training = mode
        for child in getattr(self, "children", []):
            child.train(mode)
        return self

    def eval(self) -> "Layer":
        return self.train(False)

    def _keep(self, cache) -> None:
        """Hold a forward's ``cache`` for :meth:`backward` only while
        training; an eval forward drops it, so inference keeps no backward
        state between calls."""
        self._cache = cache if self.training else None


class Conv2d(Layer):
    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng=None, name: str = "conv"):
        rng = as_generator(rng)
        fan_in = in_channels * kernel * kernel
        scale = np.sqrt(2.0 / fan_in)  # He init for ReLU nets
        self.weight = Parameter(
            rng.normal(0.0, scale, size=(out_channels, in_channels, kernel, kernel)),
            name=f"{name}.weight",
        )
        self.bias = Parameter(np.zeros(out_channels), name=f"{name}.bias") if bias else None
        self.stride, self.padding = stride, padding
        self.last_input: np.ndarray | None = None
        self.last_grad_input: np.ndarray | None = None
        self._cache = None

    def parameters(self):
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def forward(self, x):
        self.last_input = x
        out, cache = F.conv2d(
            x, self.weight.data, None if self.bias is None else self.bias.data,
            self.stride, self.padding,
        )
        self._keep(cache)
        return out

    def backward(self, dout):
        dx, dw, db = F.conv2d_backward(dout, self._cache)
        self.weight.grad += dw
        if self.bias is not None:
            self.bias.grad += db
        self.last_grad_input = dout
        return dx


class Linear(Layer):
    def __init__(self, in_features: int, out_features: int, rng=None, name: str = "fc"):
        rng = as_generator(rng)
        scale = np.sqrt(2.0 / in_features)
        self.weight = Parameter(rng.normal(0.0, scale, size=(out_features, in_features)),
                                name=f"{name}.weight")
        self.bias = Parameter(np.zeros(out_features), name=f"{name}.bias")
        self._cache = None

    def parameters(self):
        return [self.weight, self.bias]

    def forward(self, x):
        out, cache = F.linear(x, self.weight.data, self.bias.data)
        self._keep(cache)
        return out

    def backward(self, dout):
        dx, dw, db = F.linear_backward(dout, self._cache)
        self.weight.grad += dw
        self.bias.grad += db
        return dx


class ReLU(Layer):
    def forward(self, x):
        out, cache = F.relu(x)
        self._keep(cache)
        return out

    def backward(self, dout):
        return F.relu_backward(dout, self._cache)


class BatchNorm2d(Layer):
    def __init__(self, channels: int, name: str = "bn"):
        self.gamma = Parameter(np.ones(channels), name=f"{name}.gamma")
        self.beta = Parameter(np.zeros(channels), name=f"{name}.beta")
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self._cache = None

    def parameters(self):
        return [self.gamma, self.beta]

    def forward(self, x):
        out, cache = F.batch_norm(
            x, self.gamma.data, self.beta.data,
            self.running_mean, self.running_var, self.training,
        )
        self._keep(cache)
        return out

    def backward(self, dout):
        dx, dgamma, dbeta = F.batch_norm_backward(dout, self._cache)
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        return dx


class MaxPool2d(Layer):
    def __init__(self, kernel: int, stride: int | None = None):
        self.kernel, self.stride = kernel, stride

    def forward(self, x):
        out, cache = F.max_pool2d(x, self.kernel, self.stride)
        self._keep(cache)
        return out

    def backward(self, dout):
        return F.max_pool2d_backward(dout, self._cache)


class AvgPool2d(Layer):
    def __init__(self, kernel: int, stride: int | None = None):
        self.kernel, self.stride = kernel, stride

    def forward(self, x):
        out, cache = F.avg_pool2d(x, self.kernel, self.stride)
        self._keep(cache)
        return out

    def backward(self, dout):
        return F.avg_pool2d_backward(dout, self._cache)


class GlobalAvgPool(Layer):
    def forward(self, x):
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, dout):
        n, c, h, w = self._shape
        return np.broadcast_to(dout[:, :, None, None] / (h * w), self._shape).astype(dout.dtype)


class Flatten(Layer):
    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self._shape)


class Sequential(Layer):
    def __init__(self, *layers: Layer):
        self.children = list(layers)

    def parameters(self):
        return [p for layer in self.children for p in layer.parameters()]

    def forward(self, x):
        for layer in self.children:
            x = layer(x)
        return x

    def backward(self, dout):
        for layer in reversed(self.children):
            dout = layer.backward(dout)
        return dout


class Residual(Layer):
    """Basic residual block: ``relu(main(x) + shortcut(x))``."""

    def __init__(self, main: Sequential, shortcut: Layer | None = None):
        self.main = main
        self.shortcut = shortcut
        self.relu = ReLU()
        self.children = [main] + ([shortcut] if shortcut is not None else []) + [self.relu]

    def parameters(self):
        ps = self.main.parameters()
        if self.shortcut is not None:
            ps += self.shortcut.parameters()
        return ps

    def forward(self, x):
        main = self.main(x)
        skip = x if self.shortcut is None else self.shortcut(x)
        return self.relu(main + skip)

    def backward(self, dout):
        dsum = self.relu.backward(dout)
        dmain = self.main.backward(dsum)
        dskip = dsum if self.shortcut is None else self.shortcut.backward(dsum)
        return dmain + dskip

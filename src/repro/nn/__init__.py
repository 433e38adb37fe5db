"""From-scratch NumPy DNN substrate: ops, layers, models, workloads."""

from repro.nn import functional
from repro.nn.datasets import Dataset, make_pattern_dataset
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
    Residual,
    Sequential,
)
from repro.nn.models import model_conv_layers, tiny_convnet, tiny_resnet
from repro.nn.quantize import fake_quantize_fp
from repro.nn.sampling import (
    BACKWARD_ERROR,
    BACKWARD_WEIGHT,
    DISTRIBUTIONS,
    FORWARD_ACTIVATION,
    FORWARD_WEIGHT,
    TensorModel,
    sample_distribution,
    sample_model_tensors,
    sample_operand_batch,
)
from repro.nn.tensor import Parameter
from repro.nn.training import SGD, TrainResult, capture_backward_tensors, evaluate_accuracy, train
from repro.nn.zoo import (
    WORKLOADS,
    ConvShape,
    inception_v3_convs,
    resnet18_convs,
    resnet50_convs,
)

__all__ = [
    "functional", "Dataset", "make_pattern_dataset",
    "AvgPool2d", "BatchNorm2d", "Conv2d", "Flatten", "GlobalAvgPool", "Layer",
    "Linear", "MaxPool2d", "ReLU", "Residual", "Sequential",
    "model_conv_layers", "tiny_convnet", "tiny_resnet",
    "fake_quantize_fp",
    "BACKWARD_ERROR", "BACKWARD_WEIGHT", "DISTRIBUTIONS", "FORWARD_ACTIVATION",
    "FORWARD_WEIGHT", "TensorModel", "sample_distribution", "sample_model_tensors",
    "sample_operand_batch", "Parameter",
    "SGD", "TrainResult", "capture_backward_tensors", "evaluate_accuracy", "train",
    "WORKLOADS", "ConvShape", "inception_v3_convs", "resnet18_convs", "resnet50_convs",
]

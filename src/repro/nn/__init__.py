"""Minimal NumPy neural-network library (the PyTorch substitute).

Implements exactly what the paper's evaluation needs: the Fig. 5 CNN
(convolutions, max pooling, dropout, dense layers, ReLU/softmax), the
Adam optimizer, and categorical cross-entropy — plus flat-parameter
serialization, which is what the secure-aggregation protocols operate on.

Design notes (per the HPC guides): everything is vectorized over the
batch; convolution builds its im2col matrix from a strided window view
(one contiguous copy, no index gather), multiplies it in a batched GEMM,
and folds the column gradient back with one strided slice-add per kernel
offset (col2im without a scatter); parameters live in contiguous float64
arrays and serialize to one flat vector with no copies beyond the final
concatenate.
"""

from .extras import (
    AvgPool2D,
    BatchNorm1d,
    BatchNorm2d,
    CosineLR,
    StepLR,
    apply_weight_decay,
    clip_gradients,
    load_model,
    save_model,
)
from .initializers import glorot_uniform, he_normal, zeros
from .layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
    Softmax,
)
from .loss import CategoricalCrossEntropy, SoftmaxCrossEntropy
from .model import Sequential
from .optim import SGD, Adam, Optimizer
from .serialize import flat_size, get_flat_params, set_flat_params
from .zoo import mlp_classifier, paper_cnn_cifar10, paper_cnn_mnist, small_cnn

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "Dropout",
    "Flatten",
    "ReLU",
    "Softmax",
    "CategoricalCrossEntropy",
    "SoftmaxCrossEntropy",
    "Sequential",
    "Optimizer",
    "SGD",
    "Adam",
    "get_flat_params",
    "set_flat_params",
    "flat_size",
    "glorot_uniform",
    "he_normal",
    "zeros",
    "paper_cnn_cifar10",
    "paper_cnn_mnist",
    "small_cnn",
    "mlp_classifier",
    "AvgPool2D",
    "BatchNorm1d",
    "BatchNorm2d",
    "StepLR",
    "CosineLR",
    "apply_weight_decay",
    "clip_gradients",
    "save_model",
    "load_model",
]

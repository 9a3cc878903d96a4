"""A from-scratch NumPy deep-learning framework.

Provides the neural-network substrate the FedClust reproduction trains:
layers with explicit backprop over a leading cohort axis (one kernel
stack; a single model is a cohort of one), losses, SGD, a model zoo
(LeNet-5, ResNet-9, VGG-mini, MLP) and flat-vector parameter
serialization for federated communication.
"""

from repro.nn.layers import (
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    GlobalAvgPool2d,
    Layer,
    MaxPool2d,
    ReLU,
)
from repro.nn.losses import softmax_cross_entropy
from repro.nn.model import Residual, Sequential
from repro.nn.models import MODEL_BUILDERS, build_model, lenet5, mlp, resnet9, vgg_mini
from repro.nn.optim import SGD
from repro.nn.parameter import Parameter
from repro.nn.serialization import (
    flatten_grads,
    flatten_params,
    layer_slices,
    param_nbytes,
    unflatten_params,
)

__all__ = [
    "Layer",
    "Dense",
    "Conv2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "ReLU",
    "BatchNorm",
    "Residual",
    "Sequential",
    "Parameter",
    "SGD",
    "softmax_cross_entropy",
    "mlp",
    "lenet5",
    "resnet9",
    "vgg_mini",
    "build_model",
    "MODEL_BUILDERS",
    "flatten_params",
    "unflatten_params",
    "flatten_grads",
    "param_nbytes",
    "layer_slices",
]

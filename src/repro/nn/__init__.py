"""Forward-only neural-network substrate (numpy).

The neural halves of the paper's workloads are CNNs (ResNet-18 for NVSA and
LVRF, compact CNNs for MIMONet and PrAE — Table I). The DAG frontend only
needs their operator-level structure: per-layer GEMM dimensions ``(m, n, k)``
after im2col lowering, FLOPs, and byte traffic. This package provides real
(numpy) forward implementations of the layers plus that lowering, so traces
are generated from genuine executions rather than hand-written op lists.
"""

from .gemm import GemmDims, conv2d_gemm_dims, im2col, linear_gemm_dims
from .layers import (
    Add,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Softmax,
    WeightSource,
)
from .resnet import ResNet, build_resnet18, build_small_cnn

__all__ = [
    "WeightSource",
    "GemmDims",
    "im2col",
    "conv2d_gemm_dims",
    "linear_gemm_dims",
    "Layer",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "Softmax",
    "Flatten",
    "Add",
    "Sequential",
    "ResNet",
    "build_resnet18",
    "build_small_cnn",
]

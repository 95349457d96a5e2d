"""Forward-only neural-network substrate (numpy).

The neural halves of the paper's workloads are CNNs (ResNet-18 for NVSA and
LVRF, compact CNNs for MIMONet and PrAE — Table I). The DAG frontend only
needs their operator-level structure: per-layer GEMM dimensions ``(m, n, k)``
after im2col lowering, FLOPs, and byte traffic. This package provides real
(numpy) forward implementations of the layers plus that lowering, so traces
are generated from genuine executions rather than hand-written op lists.

Names resolve on first use (:mod:`repro._lazy`). The workloads import
these modules themselves, so ``import repro`` loads them all.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "layers": [
        "WeightSource",
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
    ],
    "gemm": ["GemmDims", "im2col", "conv2d_gemm_dims", "linear_gemm_dims"],
    "resnet": ["ResNet", "build_resnet18", "build_small_cnn"],
})

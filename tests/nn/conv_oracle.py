"""The row-major convolution lowering the production CNN forward is held to.

Production ``Conv2d`` gathers a K-major ``(C·kh·kw, N·OH·OW)`` column
buffer and computes ``W @ cols``, whose result is already NCHW, and
``AvgPool2d`` adds positions in one fixed sequential order. Before that,
``im2col`` gathered a row-major ``(N·OH·OW, C·kh·kw)`` matrix, the GEMM
was ``cols @ W.T``, the output a transposed view of it, and pooling was
``mean(axis=(2, 3))`` of that view (which adds positions in sequence,
because its channels are innermost in memory). This module keeps that
lowering:

* :func:`im2col` — the row-major window gather;
* :func:`conv2d` and :func:`avgpool` — the two layers' old forwards;
* :func:`forward` — a :class:`~repro.nn.resnet.ResNet` forward through
  them, every other layer running its production forward;
* :func:`features` — MIMONet's ``_features`` on that forward;
* :func:`accuracy_pass` — a workload's seeded accuracy with every CNN
  forward run by :func:`features` (or a given stand-in), and the
  features in call order.

On registry MIMONet shapes the two lowerings agree bit for bit (the BLAS
results of both operand orders coincide there); elsewhere they agree
within :data:`TOLERANCE`, as ``test_conv_oracle.py`` states.

Tests import it as ``import conv_oracle`` (pytest puts this directory on
``sys.path``); benches add ``tests/nn`` to ``sys.path`` first. It is used
nowhere else.
"""

from __future__ import annotations

import numpy as np

from repro.nn.gemm import conv_output_hw
from repro.nn.layers import AvgPool2d, Conv2d, Layer
from repro.nn.resnet import BasicBlock, ResNet
from repro.quant import quantize_array
from repro.workloads.mimonet import MimoNetWorkload

__all__ = ["TOLERANCE", "im2col", "conv2d", "avgpool", "forward", "features", "accuracy_pass"]

#: How far a production conv output may stray from the oracle's, as
#: ``np.allclose`` keywords (the largest gap measured was 1.3e-14).
TOLERANCE = dict(atol=1e-12, rtol=1e-12)


def im2col(x: np.ndarray, kernel: int, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Lower NCHW input windows into a row-major ``(N·OH·OW, C·kh·kw)`` matrix."""
    n, c, h, w = x.shape
    oh, ow = conv_output_hw(h, w, kernel, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    s = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kernel, kernel),
        strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kernel * kernel)
    return np.ascontiguousarray(cols)


def conv2d(layer: Conv2d, x: np.ndarray) -> np.ndarray:
    """``cols @ W.T`` (+ bias), returned as a channels-last view in NCHW order."""
    n = x.shape[0]
    oh, ow = conv_output_hw(x.shape[2], x.shape[3], layer.kernel, layer.stride, layer.padding)
    cols = im2col(x, layer.kernel, layer.stride, layer.padding)
    out = cols @ layer.weight.reshape(layer.out_channels, -1).T
    if layer.bias is not None:
        out += layer.bias
    return out.reshape(n, oh, ow, layer.out_channels).transpose(0, 3, 1, 2)


def avgpool(x: np.ndarray) -> np.ndarray:
    return x.mean(axis=(2, 3))


def _layer(layer: Layer, x: np.ndarray) -> np.ndarray:
    if isinstance(layer, Conv2d):
        return conv2d(layer, x)
    if isinstance(layer, AvgPool2d):
        return avgpool(x)
    return layer.forward(x)


def _block(block: BasicBlock, x: np.ndarray) -> np.ndarray:
    out = block.relu1(block.bn1(conv2d(block.conv1, x)))
    out = block.bn2(conv2d(block.conv2, out))
    identity = x
    if block.downsample is not None:
        identity = block.downsample_bn(conv2d(block.downsample, x))
    return block.relu2(block.add.forward(out, identity))


def forward(net: ResNet, x: np.ndarray) -> np.ndarray:
    for layer in net.stem:
        x = _layer(layer, x)
    for block in net.blocks:
        x = _block(block, x)
    for layer in net.head:
        x = _layer(layer, x)
    return x


def features(workload: MimoNetWorkload, image: np.ndarray) -> np.ndarray:
    """``MimoNetWorkload._features`` with the oracle forward."""
    x = quantize_array(image[None, ...], workload.config.precision.neural)
    return forward(workload._cnn, x)[0]


def accuracy_pass(
    workload: MimoNetWorkload, n_problems: int, seed: int, features=features
) -> tuple[float, list[np.ndarray]]:
    """``workload.evaluate_accuracy(n_problems, seed)`` with every CNN
    forward run by ``features(workload, image)`` (the oracle's unless
    given); returns the accuracy and the features of every image the pass
    fits on or classifies, in call order."""
    feats: list[np.ndarray] = []

    def recorded(image: np.ndarray) -> np.ndarray:
        feats.append(features(workload, image))
        return feats[-1]

    # An instance attribute shadows the method for this workload only.
    workload._features = recorded
    try:
        value = workload.evaluate_accuracy(n_problems, seed)
    finally:
        del workload._features
    return value, feats

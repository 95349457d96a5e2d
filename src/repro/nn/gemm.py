"""GEMM lowering for convolution and linear layers.

The AdArray runs NN layers as weight-stationary systolic GEMMs, so the
frontend's analytical model (paper Eq. 1) describes every layer by its GEMM
dimensions ``d1, d2, d3 = m, n, k``:

* ``m`` — output rows (spatial positions × batch for conv; batch for linear),
* ``n`` — output columns (output channels / features),
* ``k`` — reduction depth (C·kh·kw for conv; input features for linear).

``im2col`` is the column-buffer lowering (Chellapilla et al., 2006; Caffe):
each convolution window becomes one *column* of a K-major ``(k, m)`` matrix,
so the convolution is ``W.reshape(n, k) @ im2col(x)``. The weights-first
product comes out channel-major, which at batch 1 is already NCHW.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError

__all__ = ["GemmDims", "im2col", "conv2d_gemm_dims", "linear_gemm_dims", "conv_output_hw"]


@dataclass(frozen=True)
class GemmDims:
    """GEMM problem size ``(m, n, k)``: ``(m×k) @ (k×n) → (m×n)``."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.k) <= 0:
            raise ShapeError(f"GEMM dims must be positive, got {(self.m, self.n, self.k)}")

    @property
    def flops(self) -> int:
        """Multiply-accumulate FLOPs (2 per MAC)."""
        return 2 * self.m * self.n * self.k

    @property
    def input_elements(self) -> int:
        return self.m * self.k

    @property
    def weight_elements(self) -> int:
        return self.k * self.n

    @property
    def output_elements(self) -> int:
        return self.m * self.n


def conv_output_hw(
    h: int, w: int, kernel: int, stride: int = 1, padding: int = 0
) -> tuple[int, int]:
    """Output spatial dims of a square-kernel convolution."""
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(
            f"conv produces empty output: input {h}x{w}, kernel {kernel}, "
            f"stride {stride}, padding {padding}"
        )
    return oh, ow


def conv2d_gemm_dims(
    batch: int,
    in_channels: int,
    out_channels: int,
    h: int,
    w: int,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
) -> GemmDims:
    """GEMM dimensions of a conv layer after im2col lowering."""
    oh, ow = conv_output_hw(h, w, kernel, stride, padding)
    return GemmDims(m=batch * oh * ow, n=out_channels, k=in_channels * kernel * kernel)


def linear_gemm_dims(batch: int, in_features: int, out_features: int) -> GemmDims:
    """GEMM dimensions of a fully-connected layer."""
    return GemmDims(m=batch, n=out_features, k=in_features)


def im2col(
    x: np.ndarray, kernel: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Lower NCHW input windows into a K-major ``(C·kh·kw, N·OH·OW)`` matrix.

    Row ``(c, i, j)`` holds input channel ``c`` at kernel offset ``(i, j)``
    for every output position in ``(n, oh, ow)`` order, so the rows match
    ``weight.reshape(out_channels, -1)``'s columns for NCHW weights. The
    copy's innermost run is a whole output row.
    """
    if x.ndim != 4:
        raise ShapeError(f"im2col expects NCHW input, got shape {x.shape}")
    n, c, h, w = x.shape
    oh, ow = conv_output_hw(h, w, kernel, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # Gather windows via stride tricks, then reorder to (C, KH, KW, N, OH, OW).
    s = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kernel, kernel),
        strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]),
        writeable=False,
    )
    cols = np.ascontiguousarray(windows.transpose(1, 4, 5, 0, 2, 3))
    return cols.reshape(c * kernel * kernel, n * oh * ow)

"""Unit tests for GEMM lowering (im2col and dimension extraction)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.nn import GemmDims, conv2d_gemm_dims, im2col, linear_gemm_dims
from repro.nn.gemm import conv_output_hw


def _direct_conv(x, weight, stride, padding):
    """Naive O(everything) convolution reference."""
    n, c, h, w = x.shape
    oc, _, kh, kw = weight.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow))
    for b in range(n):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    patch = x[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[b, o, i, j] = np.sum(patch * weight[o])
    return out


class TestGemmDims:
    def test_flops(self):
        assert GemmDims(2, 3, 4).flops == 48

    def test_element_counts(self):
        d = GemmDims(m=5, n=6, k=7)
        assert d.input_elements == 35
        assert d.weight_elements == 42
        assert d.output_elements == 30

    def test_rejects_nonpositive(self):
        with pytest.raises(ShapeError):
            GemmDims(0, 1, 1)

    def test_conv_lowering_dims(self):
        d = conv2d_gemm_dims(batch=2, in_channels=3, out_channels=8, h=16, w=16,
                             kernel=3, stride=1, padding=1)
        assert d == GemmDims(m=2 * 16 * 16, n=8, k=3 * 9)

    def test_linear_lowering_dims(self):
        assert linear_gemm_dims(4, 128, 10) == GemmDims(m=4, n=10, k=128)


class TestConvOutputHw:
    def test_basic(self):
        assert conv_output_hw(32, 32, 3, 1, 1) == (32, 32)
        assert conv_output_hw(32, 32, 3, 2, 1) == (16, 16)

    def test_empty_output_rejected(self):
        with pytest.raises(ShapeError):
            conv_output_hw(2, 2, 5, 1, 0)


class TestIm2col:
    @given(
        st.integers(1, 2),   # batch
        st.integers(1, 3),   # channels
        st.integers(4, 8),   # spatial
        st.sampled_from([1, 3]),
        st.sampled_from([1, 2]),
        st.sampled_from([0, 1]),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_direct_convolution(self, n, c, hw, kernel, stride, padding):
        if hw + 2 * padding < kernel:
            return
        rng = np.random.default_rng(0)
        x = rng.standard_normal((n, c, hw, hw))
        weight = rng.standard_normal((4, c, kernel, kernel))
        cols = im2col(x, kernel, stride, padding)
        out = weight.reshape(4, -1) @ cols
        oh, ow = conv_output_hw(hw, hw, kernel, stride, padding)
        out = out.reshape(4, n, oh, ow).transpose(1, 0, 2, 3)
        ref = _direct_conv(x, weight, stride, padding)
        assert np.allclose(out, ref, atol=1e-10)

    def test_shape(self):
        x = np.zeros((2, 3, 8, 8))
        cols = im2col(x, 3, 1, 1)
        assert cols.shape == (3 * 9, 2 * 8 * 8)
        assert cols.flags.c_contiguous

    def test_row_order_is_channel_then_kernel_offset(self):
        # Row (c, i, j) holds channel c at kernel offset (i, j) for every
        # output position in (n, oh, ow) order.
        x = np.arange(2 * 3 * 5 * 5, dtype=float).reshape(2, 3, 5, 5)
        cols = im2col(x, 3, stride=2, padding=0)
        assert cols.shape == (3 * 9, 2 * 2 * 2)
        for c in range(3):
            for i in range(3):
                for j in range(3):
                    want = x[:, c, i : i + 3 : 2, j : j + 3 : 2].reshape(-1)
                    np.testing.assert_array_equal(cols[(c * 3 + i) * 3 + j], want)

    def test_rejects_non_nchw(self):
        with pytest.raises(ShapeError):
            im2col(np.zeros((3, 8, 8)), 3)

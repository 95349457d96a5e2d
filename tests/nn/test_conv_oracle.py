"""The K-major conv lowering against the row-major oracle (``conv_oracle.py``).

Production ``Conv2d`` computes ``W @ cols`` over a K-major column buffer;
the oracle computes ``cols @ W.T`` over the row-major one. The two GEMMs
reduce in BLAS-chosen orders, so the contract has two tiers:

* registry MIMONet features, on the images its accuracy pass runs, are
  bit-identical at every preset (measured on OpenBLAS 0.3.31's AVX-512
  kernels: swapping the operand roles keeps the bits when
  ``M = N·OH·OW`` is a multiple of 8 and ``M·N·K`` exceeds ~1e6, which
  every registry conv does);
* any other conv is within ``atol = rtol = 1e-12`` of the oracle (over
  every shape of the sweep below the largest gap measured was 1.3e-14).

``AvgPool2d`` adds positions in one fixed sequential order, so its bits do
not depend on the input's memory layout.
"""

from __future__ import annotations

import conv_oracle
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import generate_relational_dataset
from repro.dse.accuracy import (
    DEFAULT_ACCURACY_PROBLEMS,
    DEFAULT_ACCURACY_SEED,
    deployed_workload,
)
from repro.nn import AvgPool2d, Conv2d
from repro.nn.resnet import build_resnet18
from repro.quant import MIXED_PRECISION_PRESETS
from repro.utils import make_rng
from repro.workloads import build_workload
from repro.workloads.mimonet import MimoNetWorkload

PRESETS = ("FP32", "FP16", "INT8", "INT4", "MP")


@pytest.fixture(scope="module")
def mimonet():
    return build_workload("mimonet")


def accuracy_images(twin) -> list[np.ndarray]:
    """The first two training images and the first two recoveries of the
    seeded accuracy pass, generated as ``evaluate_accuracy`` generates them."""
    cfg = twin.config
    k = cfg.superposition
    n_train = max(4 * cfg.n_classes, 8)
    items = generate_relational_dataset(
        cfg.dataset,
        n_train + DEFAULT_ACCURACY_PROBLEMS * k,
        image_size=cfg.image_size,
        seed=make_rng(DEFAULT_ACCURACY_SEED),
    )
    group = items[n_train : n_train + k]
    sup = twin.superpose(group)
    return [items[0].image, items[1].image, twin.recover(sup, 0), twin.recover(sup, 1)]


@pytest.mark.parametrize("preset", PRESETS)
def test_registry_mimonet_features_bit_identical(mimonet, preset):
    twin = deployed_workload(mimonet, MIXED_PRECISION_PRESETS[preset])
    for image in accuracy_images(twin):
        got = twin._features(image)
        want = conv_oracle.features(twin, image)
        assert got.tobytes() == want.tobytes()


@pytest.mark.slow
@pytest.mark.parametrize("preset", PRESETS)
def test_registry_mimonet_accuracy_pass_bit_identical(mimonet, preset):
    """Every one of the pass's 40 forwards, and the accuracy, equal the oracle's."""
    twin = deployed_workload(mimonet, MIXED_PRECISION_PRESETS[preset])
    args = (twin, DEFAULT_ACCURACY_PROBLEMS, DEFAULT_ACCURACY_SEED)
    value, got = conv_oracle.accuracy_pass(*args, features=MimoNetWorkload._features)
    want_value, want = conv_oracle.accuracy_pass(*args)
    assert value == want_value
    assert len(got) == len(want) == 40
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@given(
    batch=st.integers(1, 3),
    channels=st.sampled_from([1, 3, 8, 64]),
    out_channels=st.sampled_from([4, 16, 64, 128]),
    hw=st.sampled_from([4, 8, 16, 33]),
    kernel=st.sampled_from([1, 3, 5]),
    stride=st.sampled_from([1, 2]),
    padding=st.sampled_from([0, 1, 2]),
    bias=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_conv_within_tolerance_of_oracle(
    batch, channels, out_channels, hw, kernel, stride, padding, bias
):
    if hw + 2 * padding < kernel:
        return
    rng = np.random.default_rng(hw * 1000 + channels)
    conv = Conv2d("c", channels, out_channels, kernel, stride, padding, bias=bias, rng=rng)
    if bias:
        conv.bias = rng.standard_normal(out_channels)
    x = rng.standard_normal((batch, channels, hw, hw))
    before = x.copy()
    got = conv.forward(x)
    np.testing.assert_array_equal(x, before)   # forward never mutates its input
    want = conv_oracle.conv2d(conv, x)
    assert got.shape == want.shape == conv.output_shape(x.shape)
    np.testing.assert_allclose(got, want, **conv_oracle.TOLERANCE)
    if batch == 1:
        assert got.flags.c_contiguous


def test_resnet_forward_within_tolerance_of_oracle():
    """Residual blocks, downsample convs, max pooling and the FC head."""
    net = build_resnet18(base_width=8, num_classes=16, rng=3)
    x = np.random.default_rng(4).standard_normal((2, 1, 32, 32))
    np.testing.assert_allclose(
        net.forward(x), conv_oracle.forward(net, x), **conv_oracle.TOLERANCE
    )


def sequential_mean(x: np.ndarray) -> np.ndarray:
    """Add every position onto zeros in row-major order, then divide."""
    n, c, h, w = x.shape
    total = np.zeros((n, c))
    for i in range(h):
        for j in range(w):
            total = total + x[:, :, i, j]
    return total / (h * w)


@given(
    n=st.integers(1, 3),
    c=st.integers(1, 9),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_avgpool_bits_independent_of_layout(n, c, h, w, seed):
    x = np.random.default_rng(seed).standard_normal((n, c, h, w))
    channels_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    pool = AvgPool2d("a")
    want = sequential_mean(x).tobytes()
    assert pool.forward(x).tobytes() == want
    assert pool.forward(channels_last).tobytes() == want


def test_avgpool_registry_shape_matches_the_oracle_view():
    """Production conv output is C-contiguous where the oracle's was a
    channels-last view; pooling either gives the oracle's bits."""
    x = np.random.default_rng(5).standard_normal((1, 512, 8, 8))
    channels_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    want = conv_oracle.avgpool(channels_last).tobytes()
    pool = AvgPool2d("a")
    assert pool.forward(x).tobytes() == want
    assert pool.forward(channels_last).tobytes() == want

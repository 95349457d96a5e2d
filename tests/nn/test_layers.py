"""Unit tests for the NN layer vocabulary."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.nn import (
    Add,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Softmax,
    WeightSource,
)


@pytest.fixture
def x_nchw():
    return np.random.default_rng(0).standard_normal((2, 3, 16, 16))


class TestConv2d:
    def test_forward_shape_matches_output_shape(self, x_nchw):
        conv = Conv2d("c", 3, 8, kernel=3, stride=2, padding=1, rng=0)
        out = conv(x_nchw)
        assert out.shape == conv.output_shape(x_nchw.shape)

    def test_gemm_dims_flops(self, x_nchw):
        conv = Conv2d("c", 3, 8, kernel=3, padding=1, rng=0)
        dims = conv.gemm_dims(x_nchw.shape)
        assert conv.flops(x_nchw.shape) == dims.flops

    def test_bias_toggles_weight_count(self):
        with_bias = Conv2d("c", 3, 8, 3, bias=True, rng=0)
        without = Conv2d("c", 3, 8, 3, bias=False, rng=0)
        assert with_bias.weight_elements() == without.weight_elements() + 8

    def test_wrong_channels_rejected(self, x_nchw):
        conv = Conv2d("c", 4, 8, 3, rng=0)
        with pytest.raises(ShapeError):
            conv(x_nchw)

    def test_invalid_params_rejected(self):
        with pytest.raises(ShapeError):
            Conv2d("c", 0, 8, 3)


class TestLinear:
    def test_forward(self):
        lin = Linear("fc", 8, 4, rng=0)
        x = np.random.default_rng(1).standard_normal((3, 8))
        out = lin(x)
        assert out.shape == (3, 4)
        assert np.allclose(out, x @ lin.weight + lin.bias)

    def test_wrong_features_rejected(self):
        lin = Linear("fc", 8, 4, rng=0)
        with pytest.raises(ShapeError):
            lin(np.zeros((3, 9)))

    def test_gemm_dims(self):
        lin = Linear("fc", 8, 4, rng=0)
        assert lin.gemm_dims((3, 8)).m == 3


class TestBatchNorm:
    def test_identity_at_init(self, x_nchw):
        bn = BatchNorm2d("bn", 3)
        out = bn(x_nchw)
        assert np.allclose(out, x_nchw, atol=1e-4)

    def test_affine_applied(self, x_nchw):
        bn = BatchNorm2d("bn", 3)
        bn.gamma[:] = 2.0
        bn.beta[:] = 1.0
        out = bn(x_nchw)
        assert np.allclose(out, 2.0 * x_nchw + 1.0, atol=1e-4)

    def test_wrong_channels(self, x_nchw):
        with pytest.raises(ShapeError):
            BatchNorm2d("bn", 5)(x_nchw)


class TestActivationsAndPools:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(ReLU("r")(x), [0.0, 0.0, 2.0])

    def test_maxpool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2d("m", kernel=2)(x)
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_padding_uses_neg_inf(self):
        x = -np.ones((1, 1, 2, 2))
        out = MaxPool2d("m", kernel=3, stride=1, padding=1)(x)
        assert np.all(out == -1.0)

    def test_maxpool_shape_consistency(self, x_nchw):
        pool = MaxPool2d("m", kernel=3, stride=2, padding=1)
        assert pool(x_nchw).shape == pool.output_shape(x_nchw.shape)

    @pytest.mark.parametrize("kwargs", [
        dict(kernel=0), dict(kernel=3, stride=0), dict(kernel=3, padding=-1),
    ], ids=["zero-kernel", "zero-stride", "negative-padding"])
    def test_maxpool_invalid_params_rejected(self, kwargs):
        with pytest.raises(ShapeError):
            MaxPool2d("p", **kwargs)(np.zeros((1, 1, 8, 8)))

    def test_avgpool_global(self, x_nchw):
        pool = AvgPool2d("a")
        out = pool(x_nchw)
        assert out.shape == (2, 3)
        assert np.allclose(out, x_nchw.mean(axis=(2, 3)))

    def test_softmax_normalizes(self):
        out = Softmax("s")(np.random.default_rng(0).standard_normal((4, 7)))
        assert np.allclose(out.sum(axis=-1), 1.0)

    def test_flatten(self, x_nchw):
        out = Flatten("f")(x_nchw)
        assert out.shape == (2, 3 * 16 * 16)
        assert Flatten("f").flops(x_nchw.shape) == 0

    def test_add_requires_two_operands(self):
        with pytest.raises(ShapeError):
            Add("a").forward(np.ones(3))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Add("a").forward(np.ones(3), np.ones(4))


class TestSequential:
    def test_chain_shapes(self, x_nchw):
        seq = Sequential([
            Conv2d("c1", 3, 8, 3, stride=2, padding=1, rng=0),
            BatchNorm2d("bn", 8),
            ReLU("r"),
            AvgPool2d("a"),
            Flatten("f"),
            Linear("fc", 8, 5, rng=0),
        ])
        out = seq(x_nchw)
        assert out.shape == seq.output_shape(x_nchw.shape)
        assert out.shape == (2, 5)

    def test_weight_elements_sum(self):
        seq = Sequential([Linear("a", 4, 4, rng=0), Linear("b", 4, 2, rng=0)])
        assert seq.weight_elements() == (4 * 4 + 4) + (4 * 2 + 2)

    @given(st.integers(1, 3), st.integers(8, 24))
    @settings(max_examples=10, deadline=None)
    def test_output_shape_matches_forward_everywhere(self, batch, hw):
        """Property: static shape inference agrees with execution."""
        layers = [
            Conv2d("c", 1, 4, 3, stride=1, padding=1, rng=0),
            MaxPool2d("m", 2),
            BatchNorm2d("bn", 4),
            ReLU("r"),
        ]
        x = np.zeros((batch, 1, hw, hw))
        shape = x.shape
        for layer in layers:
            x = layer(x)
            shape = layer.output_shape(shape)
            assert x.shape == tuple(shape)


def _deferred_pair(seed: int = 3):
    source = WeightSource(np.random.default_rng(seed))
    conv = Conv2d("c", 3, 8, 3, padding=1, rng=source)
    lin = Linear("fc", 8, 5, rng=source)
    return source, conv, lin


class TestWeightSource:
    def test_replay_equals_eager_draws(self):
        gen = np.random.default_rng(3)
        conv = Conv2d("c", 3, 8, 3, padding=1, rng=gen)
        lin = Linear("fc", 8, 5, rng=gen)
        source, d_conv, d_lin = _deferred_pair(3)
        # Read in reverse order: values depend on registration order only.
        assert np.array_equal(d_lin.weight, lin.weight)
        assert np.array_equal(d_conv.weight, conv.weight)
        # The replay stream stands where the eager one does.
        assert np.array_equal(
            source.materialize().standard_normal(4), gen.standard_normal(4)
        )

    def test_construction_and_shapes_draw_nothing(self, weight_draws, x_nchw):
        _, conv, lin = _deferred_pair()
        assert conv.weight_elements() == 8 * 3 * 3 * 3 + 8
        assert lin.weight_elements() == 8 * 5 + 5
        assert conv.output_shape(x_nchw.shape) == (2, 8, 16, 16)
        assert weight_draws == []
        conv(x_nchw)
        assert weight_draws == ["c", "fc"]

    def test_reads_and_materialize_draw_once(self, weight_draws):
        source, conv, lin = _deferred_pair()
        first = conv.weight
        assert conv.weight is first and lin.weight is lin.weight
        gen = source.materialize()
        assert source.materialize() is gen
        assert weight_draws == ["c", "fc"]

    def test_materialize_first_then_read(self, weight_draws):
        source, conv, lin = _deferred_pair()
        source.materialize()
        source.materialize()
        assert conv.weight.shape == (8, 3, 3, 3) and lin.weight.shape == (8, 5)
        assert weight_draws == ["c", "fc"]

    def test_late_registration_draws_in_stream_order(self):
        gen = np.random.default_rng(5)
        eager = [Linear("a", 4, 4, rng=gen)]
        gen.standard_normal(7)
        eager.append(Linear("b", 4, 2, rng=gen))
        source = WeightSource(np.random.default_rng(5))
        first = Linear("a", 4, 4, rng=source)
        source.materialize().standard_normal(7)
        second = Linear("b", 4, 2, rng=source)
        assert np.array_equal(first.weight, eager[0].weight)
        assert np.array_equal(second.weight, eager[1].weight)

    def test_racing_first_reads_store_eager_values(self):
        gen = np.random.default_rng(11)
        eager = [Linear(f"l{i}", 32, 32, rng=gen) for i in range(8)]
        source = WeightSource(np.random.default_rng(11))
        deferred = [Linear(f"l{i}", 32, 32, rng=source) for i in range(8)]
        barrier = threading.Barrier(len(deferred))

        def first_read(layer):
            barrier.wait(timeout=10)
            return layer.weight

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(deferred)) as pool:
                got = list(pool.map(first_read, deferred, timeout=30))
        finally:
            sys.setswitchinterval(interval)
        for g, layer, want in zip(got, deferred, eager):
            assert np.array_equal(g, want.weight)
            assert np.array_equal(layer.weight, want.weight)
        assert np.array_equal(
            source.materialize().standard_normal(3), gen.standard_normal(3)
        )

    def test_weight_is_read_only(self):
        lin = Linear("fc", 8, 4, rng=0)
        with pytest.raises(AttributeError):
            lin.weight = np.zeros((8, 4))

"""Forward-only NN layers with shape/FLOP/GEMM introspection.

Each layer both *executes* (numpy forward pass) and *describes itself* to
the NSFlow frontend: output shape, FLOPs, byte traffic, weight element
count, and — for the layers the AdArray runs as systolic GEMMs — the
lowered :class:`~repro.nn.gemm.GemmDims`. Layers that are not GEMMs
(activations, pooling, batch-norm, element-wise adds) map onto the SIMD
unit (paper Sec. IV-E).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import ShapeError
from ..utils import make_rng, prod
from .gemm import GemmDims, conv2d_gemm_dims, conv_output_hw, im2col, linear_gemm_dims

__all__ = [
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
]


class WeightSource:
    """Deferred weight draws that replay one generator stream.

    Pass ``rng=WeightSource(gen)`` to :class:`Conv2d`/:class:`Linear`
    (or a network builder) and the layers register here in construction
    order and draw nothing. The source snapshots ``gen``'s bit-generator
    state when it is made. The first read of any registered layer's
    ``weight``, or the first :meth:`materialize` call, replays every
    registered layer's draw, in registration order, from a fresh
    generator restored to that snapshot. The values are bit-identical to
    layers that drew eagerly from ``gen`` as they were built, and
    :meth:`materialize` returns the replay generator positioned after
    the last weight draw, exactly where the eager ``gen`` would stand.
    Once a source is made, its owner must not draw from ``gen`` itself.

    Only weight values are deferred: shapes, ``weight_elements()`` and
    ``describe()`` never trigger a replay, so tracing a network draws
    nothing.

    No lock is needed: the snapshot is immutable, so two threads whose
    first reads race at worst both replay identical draws and store
    identical weights, and only a complete replay publishes its
    generator.
    """

    def __init__(self, gen: np.random.Generator):
        bitgen = gen.bit_generator
        self._bitgen_type = type(bitgen)
        self._state = bitgen.state
        self._layers: list[_WeightedLayer] = []
        self._gen: np.random.Generator | None = None

    def register(self, layer: _WeightedLayer) -> None:
        """Queue ``layer``'s draw; after a replay it draws at once, in stream order."""
        if self._gen is not None:
            layer._weight = layer._draw(self._gen)
        else:
            self._layers.append(layer)

    def materialize(self) -> np.random.Generator:
        """Draw every registered weight (once) and return the stream after them."""
        if self._gen is None:
            layers = self._layers
            bitgen = self._bitgen_type()
            bitgen.state = self._state
            gen = np.random.Generator(bitgen)
            for layer in layers:
                layer._weight = layer._draw(gen)
            # The first finished replay publishes. A racing one that found
            # the list already dropped drew nothing, so it must not.
            if self._gen is None:
                self._gen = gen
                # Layers point at their source; dropping the list breaks
                # the cycle, so drawn weights are freed with their network.
                self._layers = []
        return self._gen


class Layer:
    """Base class: a named, stateless-or-weighted forward operator."""

    #: Operator kind tag used by the tracer ("conv2d", "linear", "relu", ...).
    kind: str = "layer"
    #: True when the AdArray executes this layer as a systolic GEMM.
    is_gemm: bool = False

    def __init__(self, name: str):
        self.name = name

    # -- execution ---------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- introspection -----------------------------------------------------

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Shape produced for a given input shape (no execution)."""
        raise NotImplementedError

    def gemm_dims(self, input_shape: tuple[int, ...]) -> GemmDims | None:
        """Lowered GEMM dims, or ``None`` for non-GEMM (SIMD) layers."""
        return None

    def weight_elements(self) -> int:
        """Number of stored parameters (0 for stateless layers)."""
        return 0

    def flops(self, input_shape: tuple[int, ...]) -> int:
        """Forward FLOPs for one invocation at ``input_shape``."""
        dims = self.gemm_dims(input_shape)
        if dims is not None:
            return dims.flops
        # Default for element-wise layers: one op per output element.
        return prod(self.output_shape(input_shape))

    def params(self) -> dict[str, int | float | str]:
        """Static parameters recorded into traces."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r})"


class _WeightedLayer(Layer):
    """A GEMM layer with He-normal weights, drawn now or via a :class:`WeightSource`."""

    is_gemm = True

    def _init_weights(
        self,
        shape: tuple[int, ...],
        fan_in: int,
        n_bias: int | None,
        rng: WeightSource | np.random.Generator | int | None,
    ) -> None:
        self.weight_shape = shape
        self._fan_in = fan_in
        self.bias = np.zeros(n_bias) if n_bias is not None else None
        self._weight: np.ndarray | None = None
        self._source = rng if isinstance(rng, WeightSource) else None
        if self._source is not None:
            self._source.register(self)
        else:
            self._weight = self._draw(make_rng(rng))

    def _draw(self, gen: np.random.Generator) -> np.ndarray:
        """The only weight draw: He-normal at this layer's shape."""
        return gen.standard_normal(self.weight_shape) * np.sqrt(2.0 / self._fan_in)

    @property
    def weight(self) -> np.ndarray:
        """The weight tensor; a deferred one is drawn on first read."""
        if self._weight is None:
            self._source.materialize()
        return self._weight

    def weight_elements(self) -> int:
        n = prod(self.weight_shape)
        if self.bias is not None:
            n += self.bias.size
        return n


class Conv2d(_WeightedLayer):
    """2-D convolution, square kernel, NCHW layout, bias optional."""

    kind = "conv2d"

    def __init__(
        self,
        name: str,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: WeightSource | np.random.Generator | int | None = None,
    ):
        super().__init__(name)
        if min(in_channels, out_channels, kernel, stride) <= 0 or padding < 0:
            raise ShapeError(f"invalid conv parameters for {name!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self._init_weights(
            (out_channels, in_channels, kernel, kernel),
            fan_in=in_channels * kernel * kernel,
            n_bias=out_channels if bias else None,
            rng=rng,
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"{self.name}: expected NCHW with C={self.in_channels}, got {x.shape}"
            )
        n = x.shape[0]
        oh, ow = conv_output_hw(x.shape[2], x.shape[3], self.kernel, self.stride, self.padding)
        cols = im2col(x, self.kernel, self.stride, self.padding)
        out = self.weight.reshape(self.out_channels, -1) @ cols
        if self.bias is not None:
            out += self.bias[:, None]
        # (Cout, N·OH·OW) → NCHW; at batch 1 this view is C-contiguous.
        return out.reshape(self.out_channels, n, oh, ow).transpose(1, 0, 2, 3)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        n, _, h, w = input_shape
        oh, ow = conv_output_hw(h, w, self.kernel, self.stride, self.padding)
        return (n, self.out_channels, oh, ow)

    def gemm_dims(self, input_shape: tuple[int, ...]) -> GemmDims:
        n, _, h, w = input_shape
        return conv2d_gemm_dims(
            n, self.in_channels, self.out_channels, h, w,
            self.kernel, self.stride, self.padding,
        )

    def params(self) -> dict[str, int | float | str]:
        return {
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel": self.kernel,
            "stride": self.stride,
            "padding": self.padding,
        }


class Linear(_WeightedLayer):
    """Fully-connected layer on ``(batch, features)`` inputs."""

    kind = "linear"

    def __init__(
        self,
        name: str,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: WeightSource | np.random.Generator | int | None = None,
    ):
        super().__init__(name)
        if min(in_features, out_features) <= 0:
            raise ShapeError(f"invalid linear parameters for {name!r}")
        self.in_features = in_features
        self.out_features = out_features
        self._init_weights(
            (in_features, out_features),
            fan_in=in_features,
            n_bias=out_features if bias else None,
            rng=rng,
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"{self.name}: expected (batch, {self.in_features}), got {x.shape}"
            )
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (input_shape[0], self.out_features)

    def gemm_dims(self, input_shape: tuple[int, ...]) -> GemmDims:
        return linear_gemm_dims(input_shape[0], self.in_features, self.out_features)

    def params(self) -> dict[str, int | float | str]:
        return {"in_features": self.in_features, "out_features": self.out_features}


class BatchNorm2d(Layer):
    """Inference-mode batch norm: per-channel affine normalization."""

    kind = "batchnorm"

    def __init__(self, name: str, channels: int):
        super().__init__(name)
        if channels <= 0:
            raise ShapeError(f"invalid channel count for {name!r}")
        self.channels = channels
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.eps = 1e-5

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(f"{self.name}: expected NCHW with C={self.channels}, got {x.shape}")
        scale = self.gamma / np.sqrt(self.running_var + self.eps)
        shift = self.beta - self.running_mean * scale
        return x * scale[None, :, None, None] + shift[None, :, None, None]

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(input_shape)

    def weight_elements(self) -> int:
        return 4 * self.channels

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return 2 * prod(input_shape)

    def params(self) -> dict[str, int | float | str]:
        return {"channels": self.channels}


class ReLU(Layer):
    kind = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(input_shape)


class MaxPool2d(Layer):
    """Square-window max pooling (stride defaults to the window size)."""

    kind = "maxpool"

    def __init__(self, name: str, kernel: int, stride: int | None = None, padding: int = 0):
        super().__init__(name)
        self.kernel = kernel
        self.stride = stride if stride is not None else kernel
        self.padding = padding
        if min(self.kernel, self.stride) <= 0 or padding < 0:
            raise ShapeError(f"invalid pool parameters for {name!r}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NCHW input, got {x.shape}")
        n, c, h, w = x.shape
        oh, ow = conv_output_hw(h, w, self.kernel, self.stride, self.padding)
        if self.padding:
            x = np.pad(
                x,
                ((0, 0), (0, 0), (self.padding,) * 2, (self.padding,) * 2),
                constant_values=-np.inf,
            )
        s = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, oh, ow, self.kernel, self.kernel),
            strides=(s[0], s[1], s[2] * self.stride, s[3] * self.stride, s[2], s[3]),
            writeable=False,
        )
        return windows.max(axis=(4, 5))

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        n, c, h, w = input_shape
        oh, ow = conv_output_hw(h, w, self.kernel, self.stride, self.padding)
        return (n, c, oh, ow)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return prod(self.output_shape(input_shape)) * self.kernel * self.kernel

    def params(self) -> dict[str, int | float | str]:
        return {"kernel": self.kernel, "stride": self.stride, "padding": self.padding}


class AvgPool2d(Layer):
    """Global average pooling: NCHW → (N, C).

    Each channel's ``h·w`` positions are added one by one, in row-major
    order, onto zeros, whatever the input's memory layout: ``mean`` sums a
    C-contiguous input pairwise and a channels-last one in sequence, so
    its bits depend on the layout.
    """

    kind = "avgpool"

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NCHW input, got {x.shape}")
        n, c, h, w = x.shape
        positions = np.ascontiguousarray(x.transpose(2, 3, 0, 1)).reshape(h * w, n, c)
        total = np.zeros((n, c))
        for plane in positions:
            total += plane
        return total / (h * w)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (input_shape[0], input_shape[1])

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return prod(input_shape)


class Softmax(Layer):
    kind = "softmax"

    def forward(self, x: np.ndarray) -> np.ndarray:
        z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(input_shape)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return 4 * prod(input_shape)


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (input_shape[0], prod(input_shape[1:]))

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return 0


class Add(Layer):
    """Element-wise residual addition (two-input layer)."""

    kind = "add"

    def forward(self, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:  # type: ignore[override]
        if y is None:
            raise ShapeError(f"{self.name}: Add needs two operands")
        if x.shape != y.shape:
            raise ShapeError(f"{self.name}: shape mismatch {x.shape} vs {y.shape}")
        return x + y

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(input_shape)


class Sequential:
    """An ordered chain of layers with shape-checked execution."""

    def __init__(self, layers: Sequence[Layer]):
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    __call__ = forward

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        shape = tuple(input_shape)
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def weight_elements(self) -> int:
        return sum(layer.weight_elements() for layer in self.layers)

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

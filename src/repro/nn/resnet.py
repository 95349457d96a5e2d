"""ResNet-18 and compact CNN frontends.

NVSA and LVRF use a ResNet-18 perception frontend; MIMONet and PrAE use
compact CNNs (Table I). Networks here support two modes:

* ``forward(x)`` — a real numpy forward pass (used by tests and the
  functional examples at small resolutions);
* ``describe(input_shape)`` — structural walk that yields every operator
  with its dependencies, shapes, GEMM lowering and FLOPs *without*
  executing. The tracer uses this to emit Listing-1-style traces at the
  paper's full resolutions (e.g. batch 16 × 160×160 for NVSA) where a
  numpy forward pass would be needlessly slow: the DAG frontend only
  consumes the structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeError
from .gemm import GemmDims
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
    WeightSource,
)

__all__ = ["LayerOp", "BasicBlock", "ResNet", "build_resnet18", "build_small_cnn"]


@dataclass(frozen=True)
class LayerOp:
    """One operator in a structural network walk."""

    name: str
    kind: str
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...]
    deps: tuple[str, ...]
    gemm: GemmDims | None = None
    flops: int = 0
    weight_elements: int = 0
    params: dict = field(default_factory=dict)


class BasicBlock:
    """Standard two-conv residual block (optionally downsampling)."""

    def __init__(
        self,
        name: str,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: WeightSource | np.random.Generator | int | None = None,
    ):
        self.name = name
        self.conv1 = Conv2d(
            f"{name}.conv1", in_channels, out_channels, kernel=3,
            stride=stride, padding=1, bias=False, rng=rng,
        )
        self.bn1 = BatchNorm2d(f"{name}.bn1", out_channels)
        self.relu1 = ReLU(f"{name}.relu1")
        self.conv2 = Conv2d(
            f"{name}.conv2", out_channels, out_channels, kernel=3,
            stride=1, padding=1, bias=False, rng=rng,
        )
        self.bn2 = BatchNorm2d(f"{name}.bn2", out_channels)
        self.downsample: Conv2d | None = None
        self.downsample_bn: BatchNorm2d | None = None
        if stride != 1 or in_channels != out_channels:
            self.downsample = Conv2d(
                f"{name}.down", in_channels, out_channels, kernel=1,
                stride=stride, padding=0, bias=False, rng=rng,
            )
            self.downsample_bn = BatchNorm2d(f"{name}.down_bn", out_channels)
        self.add = Add(f"{name}.add")
        self.relu2 = ReLU(f"{name}.relu2")

    def forward(self, x: np.ndarray) -> np.ndarray:
        identity = x
        out = self.relu1(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        if self.downsample is not None:
            assert self.downsample_bn is not None
            identity = self.downsample_bn(self.downsample(x))
        return self.relu2(self.add.forward(out, identity))

    def describe(self, input_shape: tuple[int, ...], input_name: str) -> list[LayerOp]:
        """Structural walk; the Add depends on both branch tails."""
        ops: list[LayerOp] = []

        def emit(layer: Layer, shape: tuple[int, ...], deps: tuple[str, ...]) -> tuple[str, tuple[int, ...]]:
            out_shape = layer.output_shape(shape)
            ops.append(
                LayerOp(
                    name=layer.name,
                    kind=layer.kind,
                    input_shape=shape,
                    output_shape=out_shape,
                    deps=deps,
                    gemm=layer.gemm_dims(shape),
                    flops=layer.flops(shape),
                    weight_elements=layer.weight_elements(),
                    params=layer.params(),
                )
            )
            return layer.name, out_shape

        n1, s1 = emit(self.conv1, input_shape, (input_name,))
        n2, s2 = emit(self.bn1, s1, (n1,))
        n3, s3 = emit(self.relu1, s2, (n2,))
        n4, s4 = emit(self.conv2, s3, (n3,))
        n5, s5 = emit(self.bn2, s4, (n4,))
        identity_name, identity_shape = input_name, input_shape
        if self.downsample is not None:
            assert self.downsample_bn is not None
            d1, ds1 = emit(self.downsample, input_shape, (input_name,))
            identity_name, identity_shape = emit(self.downsample_bn, ds1, (d1,))
        if identity_shape != s5:
            raise ShapeError(
                f"{self.name}: residual shapes diverge {identity_shape} vs {s5}"
            )
        a_name, a_shape = emit(self.add, s5, (n5, identity_name))
        emit(self.relu2, a_shape, (a_name,))
        return ops

    def weight_elements(self) -> int:
        total = (
            self.conv1.weight_elements()
            + self.bn1.weight_elements()
            + self.conv2.weight_elements()
            + self.bn2.weight_elements()
        )
        if self.downsample is not None:
            assert self.downsample_bn is not None
            total += self.downsample.weight_elements() + self.downsample_bn.weight_elements()
        return total


class ResNet:
    """A ResNet-style CNN assembled from a stem, residual stages and a head."""

    def __init__(
        self,
        name: str,
        stem: list[Layer],
        blocks: list[BasicBlock],
        head: list[Layer],
    ):
        self.name = name
        self.stem = stem
        self.blocks = blocks
        self.head = head

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.stem:
            x = layer(x)
        for block in self.blocks:
            x = block.forward(x)
        for layer in self.head:
            x = layer(x)
        return x

    __call__ = forward

    def describe(self, input_shape: tuple[int, ...], input_name: str = "input") -> list[LayerOp]:
        """Full structural walk in execution order."""
        ops: list[LayerOp] = []
        shape = tuple(input_shape)
        last = input_name
        for layer in self.stem:
            out_shape = layer.output_shape(shape)
            ops.append(
                LayerOp(
                    name=layer.name,
                    kind=layer.kind,
                    input_shape=shape,
                    output_shape=out_shape,
                    deps=(last,),
                    gemm=layer.gemm_dims(shape),
                    flops=layer.flops(shape),
                    weight_elements=layer.weight_elements(),
                    params=layer.params(),
                )
            )
            last, shape = layer.name, out_shape
        for block in self.blocks:
            block_ops = block.describe(shape, last)
            ops.extend(block_ops)
            last, shape = block_ops[-1].name, block_ops[-1].output_shape
        for layer in self.head:
            out_shape = layer.output_shape(shape)
            ops.append(
                LayerOp(
                    name=layer.name,
                    kind=layer.kind,
                    input_shape=shape,
                    output_shape=out_shape,
                    deps=(last,),
                    gemm=layer.gemm_dims(shape),
                    flops=layer.flops(shape),
                    weight_elements=layer.weight_elements(),
                    params=layer.params(),
                )
            )
            last, shape = layer.name, out_shape
        return ops

    def weight_elements(self) -> int:
        total = sum(layer.weight_elements() for layer in self.stem)
        total += sum(block.weight_elements() for block in self.blocks)
        total += sum(layer.weight_elements() for layer in self.head)
        return total

    def gemm_layers(self, input_shape: tuple[int, ...]) -> list[LayerOp]:
        """Only the GEMM-lowered layers (the AdArray NN nodes)."""
        return [op for op in self.describe(input_shape) if op.gemm is not None]


def build_resnet18(
    name: str = "resnet18",
    in_channels: int = 1,
    num_classes: int = 512,
    base_width: int = 64,
    rng: WeightSource | np.random.Generator | int | None = None,
) -> ResNet:
    """The standard 18-layer ResNet used by NVSA/LVRF perception.

    ``num_classes`` is the embedding width feeding the VSA encoder (NVSA
    projects perception features to attribute PMFs, not ImageNet classes).
    """
    stem: list[Layer] = [
        Conv2d(f"{name}.conv1", in_channels, base_width, kernel=7, stride=2,
               padding=3, bias=False, rng=rng),
        BatchNorm2d(f"{name}.bn1", base_width),
        ReLU(f"{name}.relu"),
        MaxPool2d(f"{name}.maxpool", kernel=3, stride=2, padding=1),
    ]
    widths = [base_width, base_width * 2, base_width * 4, base_width * 8]
    blocks: list[BasicBlock] = []
    in_ch = base_width
    for stage, width in enumerate(widths, start=1):
        for b in range(2):
            stride = 2 if stage > 1 and b == 0 else 1
            blocks.append(
                BasicBlock(f"{name}.layer{stage}.{b}", in_ch, width, stride=stride, rng=rng)
            )
            in_ch = width
    head: list[Layer] = [
        AvgPool2d(f"{name}.avgpool"),
        Flatten(f"{name}.flatten"),
        Linear(f"{name}.fc", widths[-1], num_classes, rng=rng),
    ]
    return ResNet(name, stem, blocks, head)


def build_small_cnn(
    name: str = "smallcnn",
    in_channels: int = 1,
    num_classes: int = 128,
    base_width: int = 32,
    depth: int = 4,
    rng: WeightSource | np.random.Generator | int | None = None,
) -> ResNet:
    """A compact plain CNN (conv-bn-relu ×depth) for MIMONet/PrAE frontends."""
    if depth < 1:
        raise ShapeError(f"depth must be >= 1, got {depth}")
    stem: list[Layer] = []
    in_ch = in_channels
    width = base_width
    for i in range(depth):
        stride = 2 if i % 2 == 0 else 1
        stem.append(
            Conv2d(f"{name}.conv{i}", in_ch, width, kernel=3, stride=stride,
                   padding=1, bias=False, rng=rng)
        )
        stem.append(BatchNorm2d(f"{name}.bn{i}", width))
        stem.append(ReLU(f"{name}.relu{i}"))
        in_ch = width
        if i % 2 == 1:
            width *= 2
    head: list[Layer] = [
        AvgPool2d(f"{name}.avgpool"),
        Flatten(f"{name}.flatten"),
        Linear(f"{name}.fc", in_ch, num_classes, rng=rng),
    ]
    return ResNet(name, stem, [], head)

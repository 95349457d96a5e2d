"""MIMONet: multiple-input-multiple-output networks (paper ref. [28]).

MIMONets exploit *computation in superposition*: each of ``k`` inputs is
bound with a private VSA key, the bound inputs are superposed into a single
tensor, the network processes that one tensor, and per-input results are
recovered by unbinding with the same keys. The neural share therefore
dominates (Fig. 1a shows ≈94 % neural runtime for MIMONet) and the symbolic
share is a thin layer of bindings/unbindings.

Functional simplification (documented per DESIGN.md): trained MIMONets are
approximately binding-equivariant; with random weights that property does
not hold, so the functional demo exercises the *exact* part of the
pipeline — pixel-space bind → superpose → unbind → classify the recovered
image against class prototypes — which is the VSA mechanism the hardware
accelerates. The execution trace, used by all performance experiments,
follows the paper-true dataflow: one CNN pass over the superposition plus
per-input bind/unbind kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..datasets.cvr_svrt import RelationalItem, generate_relational_dataset
from ..errors import ConfigError
from ..nn.gemm import GemmDims
from ..nn.layers import WeightSource
from ..nn.resnet import build_small_cnn
from ..quant import MixedPrecisionConfig, MIXED_PRECISION_PRESETS, quantize_array
from ..trace.opnode import ExecutionUnit, OpDomain, Trace
from ..trace.tracer import Tracer
from ..utils import make_rng
from ..vsa import ops as vops
from .base import NSAIWorkload

__all__ = ["MimoNetConfig", "MimoNetWorkload"]


@dataclass(frozen=True)
class MimoNetConfig:
    """MIMONet deployment parameters (CVR/SVRT-scale by default)."""

    dataset: str = "cvr"
    superposition: int = 2      # inputs processed simultaneously ("MIMO" width)
    image_size: int = 128
    cnn_width: int = 64
    cnn_depth: int = 8
    n_classes: int = 2
    feature_dim: int = 256
    precision: MixedPrecisionConfig = field(
        default_factory=lambda: MIXED_PRECISION_PRESETS["FP32"]
    )
    seed: int = 0

    def __post_init__(self) -> None:
        if self.superposition < 1:
            raise ConfigError("superposition must be >= 1")
        if self.image_size < 8:
            raise ConfigError("image_size must be >= 8")


class MimoNetWorkload(NSAIWorkload):
    """CNN in superposition with VSA key binding."""

    name = "mimonet"

    def __init__(self, config: MimoNetConfig | None = None):
        self.config = config or MimoNetConfig()
        # CNN weights are drawn only when the CNN first runs (see WeightSource).
        self._weights = WeightSource(make_rng(self.config.seed))
        self._cnn = build_small_cnn(
            name="mimocnn",
            in_channels=1,
            num_classes=self.config.feature_dim,
            base_width=self.config.cnn_width,
            depth=self.config.cnn_depth,
            rng=self._weights,
        )
        self._prototypes: np.ndarray | None = None

    @cached_property
    def _keys(self) -> list[np.ndarray]:
        """One unitary key per superposition slot, at pixel dimensionality,
        drawn after the CNN's weights."""
        gen = self._weights.materialize()
        d = self.config.image_size * self.config.image_size
        return [
            vops.random_unitary_vector(d, rng=gen)
            for _ in range(self.config.superposition)
        ]

    # -- functional interface ---------------------------------------------------

    def _flatten(self, item: RelationalItem) -> np.ndarray:
        img = item.image.reshape(-1)
        d = self.config.image_size**2
        if img.size != d:
            raise ConfigError(
                f"item image has {img.size} pixels; config expects {d} "
                f"({self.config.image_size}×{self.config.image_size})"
            )
        return img

    def superpose(self, items: list[RelationalItem]) -> np.ndarray:
        """Bind each input with its slot key and superpose (quantized)."""
        if len(items) != self.config.superposition:
            raise ConfigError(
                f"need exactly {self.config.superposition} items, got {len(items)}"
            )
        def q(x):
            return quantize_array(x, self.config.precision.symbolic)

        total = np.zeros(self.config.image_size**2)
        for key, item in zip(self._keys, items):
            total = total + q(vops.circular_convolution(key, self._flatten(item)))
        return q(total)

    def recover(self, superposed: np.ndarray, slot: int) -> np.ndarray:
        """Unbind one slot; crosstalk from the other slots remains as noise."""
        if not 0 <= slot < self.config.superposition:
            raise ConfigError(f"slot {slot} out of range")
        rec = vops.circular_correlation(self._keys[slot], superposed)
        rec = quantize_array(rec, self.config.precision.symbolic)
        return rec.reshape(1, self.config.image_size, self.config.image_size)

    def _features(self, image: np.ndarray) -> np.ndarray:
        x = quantize_array(image[None, ...], self.config.precision.neural)
        return self._cnn.forward(x)[0]

    def fit_prototypes(self, train_items: list[RelationalItem]) -> None:
        """Class prototypes over CNN features of clean training images."""
        if not train_items:
            raise ConfigError("fit_prototypes needs training items")
        feats: dict[int, list[np.ndarray]] = {}
        for item in train_items:
            feats.setdefault(item.label, []).append(self._features(item.image))
        protos = np.zeros((self.config.n_classes, self.config.feature_dim))
        for label, vecs in feats.items():
            protos[label] = np.mean(vecs, axis=0)
        self._prototypes = protos

    def classify_recovered(self, items: list[RelationalItem]) -> list[int]:
        """Superpose a group, recover each slot, classify the recovery."""
        if self._prototypes is None:
            raise ConfigError("call fit_prototypes before classify_recovered")
        sup = self.superpose(items)
        preds: list[int] = []
        for slot in range(len(items)):
            feat = self._features(self.recover(sup, slot))
            sims = self._prototypes @ feat
            preds.append(int(np.argmax(sims)))
        return preds

    def accuracy(self, groups: list[list[RelationalItem]]) -> float:
        """Per-slot accuracy over groups of ``superposition`` items."""
        if not groups:
            raise ConfigError("accuracy needs at least one group")
        total = correct = 0
        for group in groups:
            preds = self.classify_recovered(group)
            for pred, item in zip(preds, group):
                total += 1
                correct += int(pred == item.label)
        return correct / total

    def evaluate_accuracy(self, n_problems: int, seed: int = 0) -> float | None:
        """Seeded functional accuracy (see :class:`NSAIWorkload`).

        Generates a CVR/SVRT set from ``seed`` alone, fits class
        prototypes on a training slice, then classifies ``n_problems``
        superposition groups. The CNN weights are fixed at construction
        from the workload config, so the result is a pure function of
        (config, n_problems, seed). Prototypes fitted by earlier
        ``fit_prototypes`` calls are restored afterwards.
        """
        if n_problems < 1:
            raise ConfigError(f"n_problems must be >= 1, got {n_problems}")
        cfg = self.config
        k = cfg.superposition
        n_train = max(4 * cfg.n_classes, 8)
        root = make_rng(seed)
        items = generate_relational_dataset(
            cfg.dataset,
            n_train + n_problems * k,
            image_size=cfg.image_size,
            seed=root,
        )
        train, test = items[:n_train], items[n_train:]
        groups = [test[i * k : (i + 1) * k] for i in range(n_problems)]
        saved = self._prototypes
        try:
            self.fit_prototypes(train)
            return self.accuracy(groups)
        finally:
            self._prototypes = saved

    # -- superposition retrieval --------------------------------------------------

    def retrieve(
        self,
        superposed: np.ndarray,
        slot: int,
        library: list[RelationalItem],
    ) -> int:
        """Identify which library item occupies ``slot`` of a superposition.

        Nearest-neighbour matching of the unbound recovery against the
        library — the direct demonstration of computation-in-superposition:
        one stored tensor, ``k`` independently recoverable payloads.
        """
        if not library:
            raise ConfigError("retrieve needs a non-empty library")
        rec = self.recover(superposed, slot).reshape(-1)
        rec = rec / max(np.linalg.norm(rec), 1e-12)
        best, best_sim = 0, -np.inf
        for i, item in enumerate(library):
            img = self._flatten(item)
            sim = float(np.dot(rec, img) / max(np.linalg.norm(img), 1e-12))
            if sim > best_sim:
                best, best_sim = i, sim
        return best

    def retrieval_accuracy(
        self,
        groups: list[list[RelationalItem]],
        library: list[RelationalItem],
    ) -> float:
        """Fraction of slots whose payload is correctly re-identified."""
        if not groups:
            raise ConfigError("retrieval_accuracy needs at least one group")
        ids = {id(item): i for i, item in enumerate(library)}
        total = correct = 0
        for group in groups:
            sup = self.superpose(group)
            for slot, item in enumerate(group):
                if id(item) not in ids:
                    raise ConfigError("group items must come from the library")
                total += 1
                correct += int(self.retrieve(sup, slot, library) == ids[id(item)])
        return correct / total

    # -- memory accounting -------------------------------------------------------

    def component_elements(self) -> dict[str, int]:
        neural = self._cnn.weight_elements()
        neural += self.config.feature_dim * self.config.n_classes
        symbolic = self.config.superposition * self.config.image_size**2
        return {"neural": neural, "symbolic": symbolic}

    # -- trace ----------------------------------------------------------------------

    def build_trace(self) -> Trace:
        """Paper-true MIMONet dataflow: bind k inputs, one CNN pass, unbind.

        The pixel-space bindings are blockwise circular convolutions over
        1024-element blocks (the AdArray's streaming granularity).
        """
        cfg = self.config
        tracer = Tracer(self.name)
        d_img = cfg.image_size**2
        block = 1024
        n_blocks = max(1, d_img // block)

        bound_names = []
        for slot in range(cfg.superposition):
            bind = tracer.record_binding(
                (f"%input_{slot}",),
                n_vectors=n_blocks,
                dim=block,
                params={"slot": slot, "stage": "input_binding"},
            )
            bound_names.append(bind.name)
        sup = tracer.record_simd(
            "sum", tuple(bound_names), (1, 1, cfg.image_size, cfg.image_size)
        )

        # One CNN pass over the superposed input.
        net_ops = self._cnn.describe((1, 1, cfg.image_size, cfg.image_size))
        name_map = {"input": sup.name}
        tail = None
        for layer_op in net_ops:
            tail = tracer.record_layer(layer_op, name_map)
        assert tail is not None

        n_feat_blocks = max(1, cfg.feature_dim // 256)
        for slot in range(cfg.superposition):
            unbind = tracer.record_binding(
                (tail.name,),
                n_vectors=n_feat_blocks,
                dim=min(cfg.feature_dim, 256),
                inverse=True,
                params={"slot": slot, "stage": "output_unbinding"},
            )
            head = tracer.record(
                kind="linear",
                domain=OpDomain.NEURAL,
                unit=ExecutionUnit.ARRAY_NN,
                inputs=(unbind.name,),
                output_shape=(1, cfg.n_classes),
                gemm=GemmDims(m=1, n=cfg.n_classes, k=cfg.feature_dim),
                params={"slot": slot},
            )
            soft = tracer.record_simd(
                "softmax", (head.name,), (1, cfg.n_classes), domain=OpDomain.NEURAL
            )
            tracer.record_host("argmax", (soft.name,))
        return tracer.finish()

"""Deferred weight draws keep every workload stream bit-identical.

The oracle rebuilds each workload's construction order by hand from one
``make_rng(seed)``, with every layer drawing eagerly as it is built: the
reasoner's codebooks, then the frontend, then the default perception
channel (or, for MIMONet, the CNN, then the slot keys). The deferred
workload must reproduce every frontend weight, every key and the first
default-perception PMFs bitwise, whichever it is asked for first.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_spec
from repro.nn import Conv2d, Linear, build_resnet18, build_small_cnn
from repro.utils import make_rng
from repro.vsa import ops as vops
from repro.workloads import build_workload
from repro.workloads.nvsa import NvsaReasoner, PerceptionModel

SMALL = {
    "nvsa": dict(batch_panels=2, image_size=32, resnet_width=8,
                 blocks=2, block_dim=64, dictionary_atoms=8, seed=4),
    "lvrf": dict(batch_panels=2, image_size=32, resnet_width=8,
                 blocks=2, block_dim=64, dictionary_atoms=8, seed=5),
    "prae": dict(batch_panels=2, image_size=32, cnn_width=8, cnn_depth=3, seed=6),
    "scalable_nsai": dict(image_size=32, resnet_width=8, vector_dim=64,
                          blocks=2, symbolic_ratio=0.2, seed=7),
    "mimonet": dict(image_size=32, cnn_width=8, cnn_depth=3, superposition=3, seed=8),
}

#: Workloads with a default perception channel over an RPM spec.
RPM = ("nvsa", "lvrf", "prae")

#: (n_values, true_value) of the perception PMFs compared.
PMF_QUERIES = [(5 + i % 4, i % 5) for i in range(20)]


def gemm_layers(net) -> list:
    """Every weighted layer of a network, in construction order."""
    layers = list(net.stem)
    for block in net.blocks:
        layers += [block.conv1, block.conv2]
        if block.downsample is not None:
            layers.append(block.downsample)
    layers += net.head
    return [layer for layer in layers if isinstance(layer, (Conv2d, Linear))]


def eager_oracle(name: str, wl):
    """``(frontend, perception, keys)`` drawn eagerly in construction order."""
    cfg = wl.config
    spec = make_spec(cfg.dataset) if name in RPM else None
    gen = make_rng(cfg.seed)
    perception = keys = None
    if name in ("nvsa", "lvrf"):
        NvsaReasoner(
            attributes=wl._all_attrs,
            spec=spec,
            blocks=cfg.blocks,
            block_dim=cfg.block_dim,
            symbolic_precision=cfg.precision.symbolic,
            rng=gen,
        )
    if name in ("nvsa", "lvrf", "scalable_nsai"):
        net = build_resnet18("resnet18", 1, 512, cfg.resnet_width, rng=gen)
    elif name == "prae":
        net = build_small_cnn("praecnn", 1, 256, cfg.cnn_width, cfg.cnn_depth, rng=gen)
    else:
        net = build_small_cnn("mimocnn", 1, cfg.feature_dim, cfg.cnn_width,
                              cfg.cnn_depth, rng=gen)
        keys = [vops.random_unitary_vector(cfg.image_size**2, rng=gen)
                for _ in range(cfg.superposition)]
    if name in RPM:
        perception = PerceptionModel(
            confidence=cfg.confidence,
            noise=spec.perception_noise,
            neural_precision=cfg.precision.neural,
            rng=gen,
        )
    return net, perception, keys


def frontend(wl):
    return wl._cnn if wl.name == "mimonet" else wl._frontend


@pytest.mark.parametrize("weights_first", [True, False],
                         ids=["weights-first", "stream-first"])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_deferred_streams_equal_the_eager_oracle(name, weights_first):
    wl = build_workload(name, **SMALL[name])
    net, perception, keys = eager_oracle(name, wl)

    def read_weights():
        got = [layer.weight for layer in gemm_layers(frontend(wl))]
        want = [layer.weight for layer in gemm_layers(net)]
        assert len(got) == len(want) > 0
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    def read_stream():
        if keys is not None:
            assert len(wl._keys) == len(keys)
            for g, w in zip(wl._keys, keys):
                assert np.array_equal(g, w)
        if perception is not None:
            for n_values, true_value in PMF_QUERIES:
                assert np.array_equal(
                    wl.perception.pmf(n_values, true_value),
                    perception.pmf(n_values, true_value),
                )

    if weights_first:
        read_weights()
        read_stream()
    else:
        read_stream()
        read_weights()

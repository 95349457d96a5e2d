"""Deferred weight draws keep every workload stream bit-identical.

The oracle rebuilds each workload's construction order by hand from one
``make_rng(seed)``, with every layer drawing eagerly as it is built: the
reasoner's eager codebooks (``reasoner_oracle.OracleReasoner``), then the
frontend, then the default perception channel (or, for MIMONet, the CNN,
then the slot keys). The deferred workload must reproduce every frontend
weight, every key, the first default-perception PMFs and (NVSA, LVRF)
every codebook vector bitwise, whichever it is asked for first.
"""

from __future__ import annotations

import numpy as np
import pytest
from reasoner_oracle import OracleReasoner

from repro.datasets import make_spec
from repro.nn import Conv2d, Linear, build_resnet18, build_small_cnn
from repro.quant import MIXED_PRECISION_PRESETS
from repro.utils import make_rng
from repro.vsa import ops as vops
from repro.workloads import build_workload
from repro.workloads.nvsa import PerceptionModel

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
    """``(frontend, perception, keys, reasoner)`` drawn eagerly in construction order."""
    cfg = wl.config
    spec = make_spec(cfg.dataset) if name in RPM else None
    gen = make_rng(cfg.seed)
    perception = keys = reasoner = None
    if name in ("nvsa", "lvrf"):
        reasoner = OracleReasoner(
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
    return net, perception, keys, reasoner


def frontend(wl):
    return wl._cnn if wl.name == "mimonet" else wl._frontend


def check_weights(wl, net) -> None:
    got = [layer.weight for layer in gemm_layers(frontend(wl))]
    want = [layer.weight for layer in gemm_layers(net)]
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def check_stream(wl, perception, keys) -> None:
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


def check_codebooks(wl, reasoner: OracleReasoner) -> None:
    """Atoms and step spectra built on first use equal the eager build's."""
    books = wl.reasoner._codebooks
    assert list(books) == list(reasoner._atoms)
    for name, book in books.items():
        assert book.atoms.tobytes() == reasoner._atoms[name].tobytes()
        assert list(book.step_spectra) == list(reasoner._steps[name])
        for d, step in reasoner._steps[name].items():
            assert book.step_spectra[d].tobytes() == np.fft.rfft(step, axis=-1).tobytes()


@pytest.mark.parametrize("weights_first", [True, False],
                         ids=["weights-first", "stream-first"])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_deferred_streams_equal_the_eager_oracle(name, weights_first):
    wl = build_workload(name, **SMALL[name])
    net, perception, keys, _ = eager_oracle(name, wl)
    if weights_first:
        check_weights(wl, net)
        check_stream(wl, perception, keys)
    else:
        check_stream(wl, perception, keys)
        check_weights(wl, net)


@pytest.mark.parametrize("preset", ["FP32", "INT4"])
@pytest.mark.parametrize("name", ["nvsa", "lvrf"])
def test_codebooks_built_on_first_use_equal_the_eager_oracle(name, preset):
    wl = build_workload(name, **SMALL[name], precision=MIXED_PRECISION_PRESETS[preset])
    *_, reasoner = eager_oracle(name, wl)
    assert "_codebooks" not in vars(wl.reasoner), "construction built a codebook"
    assert wl.reasoner.atom_elements() == reasoner.atom_elements()
    check_codebooks(wl, reasoner)


@pytest.mark.parametrize("codebooks_at", [0, 1, 2],
                         ids=["codebooks-first", "codebooks-between", "codebooks-last"])
@pytest.mark.parametrize("name", ["nvsa", "lvrf"])
def test_codebook_reads_leave_weights_and_perception_unchanged(name, codebooks_at):
    """Codebooks come from bases drawn at construction: no read moves a stream."""
    wl = build_workload(name, **SMALL[name])
    net, perception, keys, reasoner = eager_oracle(name, wl)
    checks = [lambda: check_weights(wl, net), lambda: check_stream(wl, perception, keys)]
    checks.insert(codebooks_at, lambda: check_codebooks(wl, reasoner))
    for check in checks:
        check()


@pytest.mark.parametrize("name", ["nvsa", "lvrf"])
def test_tracing_and_accounting_build_no_codebook(name):
    wl = build_workload(name, **SMALL[name])
    wl.build_trace()
    wl.component_elements()
    wl.fingerprint()
    assert "_codebooks" not in vars(wl.reasoner)

"""Shared fixtures: small, fast workload configurations for testing.

Full paper-scale traces take seconds to schedule; tests use scaled-down
configs that preserve every structural property (layer chains, VSA node
fan-out, rule vocabulary) at a fraction of the size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import generate_dataset, make_spec
from repro.graph import build_dataflow_graph
from repro.nn import Conv2d, Linear
from repro.workloads.lvrf import LvrfConfig
from repro.workloads.nvsa import NvsaConfig, NvsaWorkload
from repro.workloads.prae import PraeConfig


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def weight_draws(monkeypatch) -> list[str]:
    """Names of the layers whose weights are drawn while the test runs."""
    drawn: list[str] = []
    for cls in (Conv2d, Linear):
        original = cls._draw

        def counting(self, gen, _original=original):
            drawn.append(self.name)
            return _original(self, gen)

        monkeypatch.setattr(cls, "_draw", counting)
    return drawn


@pytest.fixture(scope="session")
def small_nvsa_config():
    """An NVSA config small enough for per-test solving and tracing."""
    return NvsaConfig(
        batch_panels=4,
        image_size=32,
        resnet_width=8,
        blocks=2,
        block_dim=128,
        dictionary_atoms=32,
        seed=7,
    )


@pytest.fixture(scope="session")
def small_lvrf_config():
    """An LVRF config small enough for per-test solving and tracing."""
    return LvrfConfig(
        batch_panels=4, image_size=32, resnet_width=8,
        blocks=2, block_dim=128, dictionary_atoms=16, seed=0,
    )


@pytest.fixture(scope="session")
def small_prae_config():
    """A PrAE config small enough for per-test solving and tracing."""
    return PraeConfig(batch_panels=4, image_size=32, cnn_width=8, cnn_depth=2, seed=0)


@pytest.fixture(scope="session")
def small_nvsa(small_nvsa_config):
    return NvsaWorkload(small_nvsa_config)


@pytest.fixture(scope="session")
def small_nvsa_trace(small_nvsa):
    return small_nvsa.build_trace()


@pytest.fixture(scope="session")
def small_nvsa_graph(small_nvsa_trace):
    return build_dataflow_graph(small_nvsa_trace)


@pytest.fixture(scope="session")
def raven_problems():
    return generate_dataset(make_spec("raven"), 12, seed=3)

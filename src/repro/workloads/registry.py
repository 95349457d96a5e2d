"""Workload registry: build any Table I workload by name."""

from __future__ import annotations

from ..errors import ConfigError
from .base import NSAIWorkload
from .lvrf import LvrfConfig, LvrfWorkload
from .mimonet import MimoNetConfig, MimoNetWorkload
from .nvsa import NvsaConfig, NvsaWorkload
from .prae import PraeConfig, PraeWorkload
from .scaling import ScalableConfig, ScalableNsaiWorkload
from .synth import SynthConfig, SynthWorkload

__all__ = ["available_workloads", "build_workload", "workload_config"]

#: Workload class and config dataclass per registry name, in Table I order.
#: The sweep layer resolves configs alone to build cache keys without
#: paying for workload construction on warm-cache paths.
_REGISTRY: dict[str, tuple[type[NSAIWorkload], type]] = {
    "nvsa": (NvsaWorkload, NvsaConfig),
    "mimonet": (MimoNetWorkload, MimoNetConfig),
    "lvrf": (LvrfWorkload, LvrfConfig),
    "prae": (PraeWorkload, PraeConfig),
    "scalable_nsai": (ScalableNsaiWorkload, ScalableConfig),
    "synth": (SynthWorkload, SynthConfig),
}


def available_workloads() -> list[str]:
    """Registry names, in Table I order."""
    return list(_REGISTRY)


def build_workload(name: str, **config_overrides) -> NSAIWorkload:
    """Instantiate a workload by registry name with config overrides."""
    config = workload_config(name, **config_overrides)
    return _REGISTRY[name.lower()][0](config)


def workload_config(name: str, **config_overrides):
    """The fully-resolved config dataclass for a registry workload.

    Resolving the config (defaults + overrides) without instantiating the
    workload keeps cache-key computation cheap: the sweep layer only
    builds the actual workload (CNN weights, codebooks, ...) when a
    scenario misses the artifact cache.
    """
    try:
        _, config_type = _REGISTRY[name.lower()]
    except KeyError as exc:
        raise ConfigError(
            f"unknown workload {name!r}; available: {', '.join(_REGISTRY)}"
        ) from exc
    try:
        return config_type(**config_overrides)
    except TypeError as exc:
        raise ConfigError(
            f"bad config override for workload {name!r}: {exc}"
        ) from exc

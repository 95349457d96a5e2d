"""Small shared helpers used across the NSFlow reproduction."""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import ConfigError

__all__ = [
    "ceil_div",
    "prod",
    "clamp",
    "is_power_of_two",
    "next_power_of_two",
    "log2_int",
    "human_bytes",
    "make_rng",
    "normalize",
    "topk_indices",
    "jsonable",
    "canonical_json",
    "stable_digest",
    "MB",
    "KB",
]

KB = 1024
MB = 1024 * 1024


def ceil_div(a: int, b: int) -> int:
    """Return ``ceil(a / b)`` for non-negative ``a`` and positive ``b``.

    This is the ``⌈·⌉`` that appears throughout the paper's analytical
    runtime models (Eqs. 1-4).
    """
    if b <= 0:
        raise ConfigError(f"ceil_div divisor must be positive, got {b}")
    if a < 0:
        raise ConfigError(f"ceil_div numerator must be non-negative, got {a}")
    return -(-a // b)


def prod(values: Iterable[int]) -> int:
    """Product of an iterable of ints (empty product is 1)."""
    result = 1
    for v in values:
        result *= v
    return result


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the closed interval [low, high]."""
    if low > high:
        raise ConfigError(f"clamp bounds inverted: [{low}, {high}]")
    return max(low, min(high, value))


def is_power_of_two(n: int) -> bool:
    """True when ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    """Smallest power of two that is >= ``n`` (n must be positive)."""
    if n <= 0:
        raise ConfigError(f"next_power_of_two needs a positive int, got {n}")
    return 1 << (n - 1).bit_length()


def log2_int(n: int) -> int:
    """Exact integer log2; raises when ``n`` is not a power of two."""
    if not is_power_of_two(n):
        raise ConfigError(f"{n} is not a power of two")
    return n.bit_length() - 1


def human_bytes(n: float) -> str:
    """Format a byte count like ``2.7 MB`` (decimal on top of binary units)."""
    if n < 0:
        raise ConfigError(f"byte count must be non-negative, got {n}")
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if n < 1024 or unit == "TB":
            if unit == "B":
                return f"{int(n)} {unit}"
            return f"{n:.2f} {unit}"
        n /= 1024
    raise AssertionError("unreachable")


def make_rng(seed: int | None | np.random.Generator) -> np.random.Generator:
    """Return a numpy Generator from a seed, ``None``, or a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def normalize(vec: np.ndarray, axis: int = -1, eps: float = 1e-12) -> np.ndarray:
    """L2-normalize ``vec`` along ``axis``; zero vectors stay zero."""
    norm = np.linalg.norm(vec, axis=axis, keepdims=True)
    return vec / np.maximum(norm, eps)


def topk_indices(scores: Sequence[float] | np.ndarray, k: int) -> list[int]:
    """Indices of the ``k`` largest scores, in descending-score order."""
    arr = np.asarray(scores, dtype=np.float64)
    if k < 0 or k > arr.size:
        raise ConfigError(f"k={k} out of range for {arr.size} scores")
    order = np.argsort(-arr, kind="stable")
    return [int(i) for i in order[:k]]


def jsonable(obj: object) -> object:
    """Convert a config-style value into plain JSON types, recursively.

    Handles the vocabulary the repo's frozen config dataclasses use:
    dataclasses (by field), Enums (by ``value``), mappings keyed by
    strings, tuples/lists/sets (sets are sorted for determinism), numpy
    scalars, and JSON primitives. Anything else is rejected so an
    unhashable or ambiguous config field fails loudly instead of
    silently weakening a cache key.

    Exact JSON types take a fast path first (a scenario key walks its
    already-converted document twice); subclasses — ``IntEnum``,
    str-mixin enums, numpy scalars, ``OrderedDict``, namedtuples — fall
    through to the full chain, so every output and error is the same.
    """
    kind = type(obj)
    if kind in _JSON_LEAVES:
        return obj
    if kind is dict:
        return _jsonable_dict(obj)
    if kind is list or kind is tuple:
        return [jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return jsonable(obj.value)
    if isinstance(obj, dict):
        return _jsonable_dict(obj)
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable(v) for v in obj)  # type: ignore[type-var]
    if isinstance(obj, np.generic):
        return obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise ConfigError(f"value {obj!r} of type {type(obj).__name__} is not JSON-able")


_JSON_LEAVES = frozenset({str, int, float, bool, type(None)})


def _jsonable_dict(obj: dict) -> dict:
    out = {}
    for k, v in obj.items():
        if not isinstance(k, str):
            raise ConfigError(f"non-string dict key {k!r} in config value")
        out[k] = jsonable(v)
    return out


def canonical_json(obj: object) -> str:
    """Deterministic JSON rendering used for content-addressed keys.

    Keys are sorted and separators fixed, so equal values always render
    to the same byte string regardless of construction order.
    """
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def stable_digest(obj: object, length: int = 16) -> str:
    """SHA-256 hex digest of :func:`canonical_json`, truncated to ``length``.

    Unlike Python's ``hash()``, this survives process restarts (no string
    hash randomization) — it is the identity the on-disk artifact store
    keys on. 16 hex chars (64 bits) keeps directory names short while a
    collision within one cache directory stays vanishingly unlikely.
    """
    if length < 8 or length > 64:
        raise ConfigError(f"digest length must be in [8, 64], got {length}")
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:length]


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (used for speedup summaries)."""
    vals = [float(v) for v in values]
    if not vals:
        raise ConfigError("geomean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ConfigError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))

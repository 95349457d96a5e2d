"""Unit tests for repro.utils."""

import collections
import dataclasses
import enum
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.utils import (
    KB,
    MB,
    ceil_div,
    clamp,
    geomean,
    human_bytes,
    is_power_of_two,
    jsonable,
    log2_int,
    make_rng,
    next_power_of_two,
    normalize,
    prod,
    topk_indices,
)


class TestCeilDiv:
    def test_exact_division(self):
        assert ceil_div(12, 4) == 3

    def test_rounds_up(self):
        assert ceil_div(13, 4) == 4

    def test_zero_numerator(self):
        assert ceil_div(0, 5) == 0

    def test_one(self):
        assert ceil_div(1, 1000) == 1

    def test_negative_numerator_rejected(self):
        with pytest.raises(ConfigError):
            ceil_div(-1, 2)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ConfigError):
            ceil_div(4, 0)

    @given(st.integers(0, 10**9), st.integers(1, 10**6))
    def test_matches_math_ceil(self, a, b):
        assert ceil_div(a, b) == math.ceil(a / b)

    @given(st.integers(0, 10**9), st.integers(1, 10**6))
    def test_bounds(self, a, b):
        q = ceil_div(a, b)
        assert q * b >= a
        assert (q - 1) * b < a or q == 0


class TestProd:
    def test_empty_is_one(self):
        assert prod([]) == 1

    def test_values(self):
        assert prod([2, 3, 4]) == 24

    def test_with_zero(self):
        assert prod([5, 0, 7]) == 0


class TestClamp:
    def test_inside(self):
        assert clamp(0.5, 0.0, 1.0) == 0.5

    def test_below(self):
        assert clamp(-1.0, 0.0, 1.0) == 0.0

    def test_above(self):
        assert clamp(2.0, 0.0, 1.0) == 1.0

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ConfigError):
            clamp(0.5, 1.0, 0.0)


class TestPowersOfTwo:
    def test_is_power_of_two_true(self):
        for n in (1, 2, 4, 1024, 8192):
            assert is_power_of_two(n)

    def test_is_power_of_two_false(self):
        for n in (0, -2, 3, 6, 1023):
            assert not is_power_of_two(n)

    def test_next_power_of_two(self):
        assert next_power_of_two(1) == 1
        assert next_power_of_two(3) == 4
        assert next_power_of_two(1024) == 1024
        assert next_power_of_two(1025) == 2048

    def test_next_power_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            next_power_of_two(0)

    def test_log2_int(self):
        assert log2_int(1) == 0
        assert log2_int(8192) == 13

    def test_log2_int_rejects_non_power(self):
        with pytest.raises(ConfigError):
            log2_int(12)

    @given(st.integers(1, 2**40))
    def test_next_power_is_power_and_geq(self, n):
        p = next_power_of_two(n)
        assert is_power_of_two(p)
        assert p >= n
        assert p < 2 * n


class TestHumanBytes:
    def test_bytes(self):
        assert human_bytes(512) == "512 B"

    def test_megabytes(self):
        assert human_bytes(2.5 * MB) == "2.50 MB"

    def test_kilobytes(self):
        assert human_bytes(3 * KB) == "3.00 KB"

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            human_bytes(-1)


class TestRngHelpers:
    def test_seed_reproducible(self):
        a = make_rng(5).standard_normal(4)
        b = make_rng(5).standard_normal(4)
        assert np.allclose(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen


class TestNormalize:
    def test_unit_norm(self):
        v = normalize(np.array([3.0, 4.0]))
        assert np.isclose(np.linalg.norm(v), 1.0)

    def test_zero_vector_stays_zero(self):
        v = normalize(np.zeros(4))
        assert np.allclose(v, 0.0)


class TestTopk:
    def test_order(self):
        assert topk_indices([0.1, 0.9, 0.5], 2) == [1, 2]

    def test_k_zero(self):
        assert topk_indices([1.0, 2.0], 0) == []

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            topk_indices([1.0], 2)


class TestGeomean:
    def test_value(self):
        assert np.isclose(geomean([1.0, 4.0]), 2.0)

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            geomean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            geomean([1.0, 0.0])


def jsonable_oracle(obj: object) -> object:
    """``jsonable`` before its exact-type fast path: the reference chain."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable_oracle(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return jsonable_oracle(obj.value)
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise ConfigError(f"non-string dict key {k!r} in config value")
            out[k] = jsonable_oracle(v)
        return out
    if isinstance(obj, (list, tuple)):
        return [jsonable_oracle(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable_oracle(v) for v in obj)
    if isinstance(obj, np.generic):
        return obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise ConfigError(f"value {obj!r} of type {type(obj).__name__} is not JSON-able")


class Color(enum.Enum):
    RED = "red"
    BLUE = 2


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Mode(str, enum.Enum):
    FAST = "fast"
    SLOW = "slow"


Point = collections.namedtuple("Point", "x y")


@dataclasses.dataclass(frozen=True)
class Pair:
    a: object
    b: object


_ENUMS = list(Color) + list(Level) + list(Mode)
_HASHABLE = st.one_of(st.integers(-3, 3), st.text(max_size=2), st.sampled_from(_ENUMS))
_KEYS = st.one_of(st.text(max_size=3), st.sampled_from(list(Mode)),
                  st.integers(0, 2), st.sampled_from(list(Level)))
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.sampled_from(_ENUMS),
    st.builds(np.float64, st.floats()),
    st.builds(np.int32, st.integers(-2**31, 2**31 - 1)),
    st.builds(np.bool_, st.booleans()),
    st.just(1j), st.just(b"raw"),
)
_VALUES = st.recursive(_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=3),
    st.lists(children, max_size=3).map(tuple),
    st.builds(Point, children, children),
    st.builds(Pair, children, children),
    st.dictionaries(_KEYS, children, max_size=3),
    st.dictionaries(_KEYS, children, max_size=3).map(collections.OrderedDict),
    st.sets(_HASHABLE, max_size=3),
    st.frozensets(_HASHABLE, max_size=3),
), max_leaves=12)


def _tagged(x):
    """``x`` with each node's exact type, so 1, 1.0 and True stay apart."""
    if isinstance(x, dict):
        return dict, [(_tagged(k), _tagged(v)) for k, v in x.items()]
    if isinstance(x, list):
        return list, [_tagged(v) for v in x]
    return type(x), repr(x)


def _outcome(fn, value):
    try:
        return "ok", _tagged(fn(value))
    except Exception as exc:  # noqa: BLE001 - errors are compared too
        return "error", type(exc), str(exc)


class TestJsonable:
    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    def test_matches_the_reference_chain(self, value):
        """Same output, order and types, and the same error, as the chain
        without the fast path — on subclasses of the fast-path types too."""
        assert _outcome(jsonable, value) == _outcome(jsonable_oracle, value)

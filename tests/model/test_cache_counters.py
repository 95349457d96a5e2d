"""Counter views of the model caches: current and cumulative.

``cache_stats()`` reports each cache's current counters and size, which
zero with ``clear()``. The cumulative view (``cumulative_snapshot``/
``delta_since``) must stay monotonic across ``clear_model_caches()`` so a
sweep or a long-lived server can account its hits/misses without clearing
caches — and without a clear that *does* happen (a benchmark timing a
cold run) making a delta go negative or vanish.
"""

from __future__ import annotations

import pytest

from repro.model.cache import (
    CacheStats,
    EvalCache,
    cache_stats,
    cached_layer_runtime,
    clear_model_caches,
    cumulative_snapshot,
    delta_since,
)
from repro.model.runtime import layer_runtime
from repro.nn.gemm import GemmDims


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_model_caches()
    yield
    clear_model_caches()


def test_resettable_counters_zero_on_clear():
    cache = EvalCache("test_resettable")
    cache.get_or_compute("k", lambda: 1)
    cache.get_or_compute("k", lambda: 1)
    assert cache_stats()["test_resettable"] == CacheStats(
        name="test_resettable", hits=1, misses=1, entries=1,
    )
    cache.clear()
    assert cache_stats()["test_resettable"] == CacheStats(
        name="test_resettable", hits=0, misses=0, entries=0,
    )
    assert len(cache) == 0


def test_cumulative_counters_survive_clear():
    cache = EvalCache("test_cumulative")
    cache.get_or_compute("k", lambda: 1)
    cache.get_or_compute("k", lambda: 1)
    cache.clear()
    cache.get_or_compute("k", lambda: 1)   # recomputed: a fresh miss
    assert (cache.hits, cache.misses) == (0, 1)
    assert (cache.cumulative_hits, cache.cumulative_misses) == (1, 2)


def test_delta_since_counts_keyed_hits_and_misses():
    snap = cumulative_snapshot()
    dims = GemmDims(8, 8, 8)
    cached_layer_runtime(4, 4, 1, dims)
    cached_layer_runtime(4, 4, 1, dims)
    delta = delta_since(snap)
    assert delta["layer_runtime"].misses == 1
    assert delta["layer_runtime"].hits == 1
    assert delta["layer_runtime"].entries == 1


def test_delta_since_skips_unmoved_caches():
    snap = cumulative_snapshot()
    delta = delta_since(snap)
    assert delta == {}


def test_delta_since_is_monotonic_across_clear():
    """The long-lived-process property: a clear cannot lose counts."""
    snap = cumulative_snapshot()
    dims = GemmDims(8, 8, 8)
    cached_layer_runtime(4, 4, 1, dims)        # miss before the clear
    clear_model_caches()
    cached_layer_runtime(4, 4, 1, dims)        # recomputed after: miss again
    cached_layer_runtime(4, 4, 1, dims)        # hit
    delta = delta_since(snap)
    assert delta["layer_runtime"].misses == 2
    assert delta["layer_runtime"].hits == 1


def test_delta_since_covers_lru_layers_across_clear():
    """``lru_cache`` counters reset with ``cache_clear``; the cumulative
    view must carry the pre-clear totals itself."""
    snap = cumulative_snapshot()
    dims = GemmDims(16, 16, 16)
    layer_runtime(4, 4, 1, dims)               # lru miss
    layer_runtime(4, 4, 1, dims)               # lru hit
    clear_model_caches()
    layer_runtime(4, 4, 1, dims)               # lru miss again
    delta = delta_since(snap)
    assert delta["lru.layer_runtime"].misses == 2
    assert delta["lru.layer_runtime"].hits == 1


def test_cumulative_snapshot_monotonic_under_interleaved_clears():
    before = cumulative_snapshot()
    dims = GemmDims(8, 8, 8)
    for _ in range(3):
        cached_layer_runtime(4, 4, 1, dims)
        clear_model_caches()
    after = cumulative_snapshot()
    for name, (hits, misses) in after.items():
        h0, m0 = before.get(name, (0, 0))
        assert hits >= h0 and misses >= m0
    assert after["layer_runtime"][1] - before["layer_runtime"][1] == 3

"""The cumulative counter view of the runtime models' ``lru_cache`` memo.

``cumulative_snapshot()`` reports process-lifetime ``(hits, misses)``
for the ``lru.layer_runtime`` and ``lru.vsa_node_runtime`` layers. It
must stay monotonic across ``clear_model_caches()``, so a long-lived
server (``/stats`` ``model_cache``) or a benchmark can diff two
snapshots without a clear in between making a count go backwards or
vanish.
"""

from __future__ import annotations

import pytest

from repro.model.cache import clear_model_caches, cumulative_snapshot
from repro.model.runtime import layer_runtime, vsa_node_runtime
from repro.nn.gemm import GemmDims
from repro.trace.opnode import VsaDims


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_model_caches()
    yield
    clear_model_caches()


def _grown(before: dict, after: dict, name: str) -> tuple[int, int]:
    return after[name][0] - before[name][0], after[name][1] - before[name][1]


def test_cumulative_counters_survive_clear():
    """``lru_cache`` counters reset with ``cache_clear``; the cumulative
    view must carry the pre-clear totals itself."""
    before = cumulative_snapshot()
    dims = GemmDims(16, 16, 16)
    layer_runtime(4, 4, 1, dims)               # miss
    layer_runtime(4, 4, 1, dims)               # hit
    clear_model_caches()
    assert layer_runtime.cache_info().currsize == 0
    layer_runtime(4, 4, 1, dims)               # recomputed: a fresh miss
    after = cumulative_snapshot()
    assert _grown(before, after, "lru.layer_runtime") == (1, 2)
    assert _grown(before, after, "lru.vsa_node_runtime") == (0, 0)


def test_delta_since_covers_lru_layers_across_clear():
    """The diff of two snapshots counts the work on both ``lru`` layers,
    each on its own, whatever was cleared in between."""
    before = cumulative_snapshot()
    gemm, vsa = GemmDims(16, 16, 16), VsaDims(4, 64)
    layer_runtime(4, 4, 1, gemm)               # miss
    vsa_node_runtime(4, 4, 1, vsa)             # miss
    vsa_node_runtime(4, 4, 1, vsa)             # hit
    clear_model_caches()
    vsa_node_runtime(4, 4, 1, vsa)             # miss again
    vsa_node_runtime(4, 4, 1, vsa)             # hit
    after = cumulative_snapshot()
    assert _grown(before, after, "lru.layer_runtime") == (0, 1)
    assert _grown(before, after, "lru.vsa_node_runtime") == (2, 2)


def test_cumulative_snapshot_monotonic_under_interleaved_clears():
    before = cumulative_snapshot()
    dims = GemmDims(8, 8, 8)
    for _ in range(3):
        layer_runtime(4, 4, 1, dims)
        clear_model_caches()
    after = cumulative_snapshot()
    for name, (hits, misses) in after.items():
        h0, m0 = before[name]
        assert hits >= h0 and misses >= m0
    assert _grown(before, after, "lru.layer_runtime") == (0, 3)

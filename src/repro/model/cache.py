"""Keyed memoization for the DSE's analytical-model sub-evaluations.

The exploration engine (:mod:`repro.dse.engine`) evaluates the
same analytical sub-models — layer latency (Eq. 1), VSA node latency
(Eqs. 3-4), the memory plan, the SIMD width — for thousands of candidate
design points, and re-explores the same dataflow graph across benchmark
sweeps. This module puts those sub-evaluations behind explicit keyed
caches so repeated work is a dictionary hit, and so callers (tests,
benches) can observe hit/miss behavior via :func:`cache_stats`.

Two layers of memoization coexist:

* :func:`repro.model.runtime.layer_runtime` / ``vsa_node_runtime`` keep
  their ``functools.lru_cache`` — the innermost hot path stays C-fast;
* the :class:`EvalCache` wrappers here add *observable*, clearable,
  bounded caches keyed on value semantics (graph content, precision
  values), which the engine uses for whole-graph results (memory plan,
  SIMD width) that ``lru_cache`` cannot key on mutable graph objects.

``clear_model_caches()`` resets everything, including the ``lru_cache``
layers — benchmarks call it to time genuinely cold sweeps. Nothing in
the toolchain clears them: every cache is bounded by its own size (the
``lru_cache`` layers in :mod:`repro.model.runtime`, ``max_entries``
here).

Work is audited with the **cumulative** counters
(:func:`cumulative_snapshot` / :func:`delta_since`), which are monotonic
for the life of the process — ``clear_model_caches()`` folds the cleared
counters into a running total instead of losing them. A sweep diffs two
snapshots to count its fresh model evaluations, and the ``repro serve``
warm server exposes the same totals, so neither ever has to clear caches
to keep the books straight.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..errors import ConfigError
from .memory import MemoryPlan, plan_memory, simd_width
from .runtime import layer_runtime, vsa_node_runtime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.dataflow import DataflowGraph
    from ..nn.gemm import GemmDims
    from ..quant import MixedPrecisionConfig
    from ..trace.opnode import VsaDims

__all__ = [
    "CacheStats",
    "EvalCache",
    "graph_cache_key",
    "cached_layer_runtime",
    "cached_vsa_node_runtime",
    "cached_plan_memory",
    "cached_simd_width",
    "cache_stats",
    "cumulative_snapshot",
    "delta_since",
    "clear_model_caches",
    "LAYER_RUNTIME_CACHE",
    "VSA_RUNTIME_CACHE",
    "MEMORY_PLAN_CACHE",
    "SIMD_WIDTH_CACHE",
]


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of one cache's counters."""

    name: str
    hits: int
    misses: int
    entries: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


class EvalCache:
    """A bounded, keyed memo table with hit/miss accounting.

    Keys must be hashable value tuples; eviction is FIFO (oldest insertion
    first), which is adequate for the DSE's mostly-monotone key streams.
    """

    def __init__(self, name: str, max_entries: int = 1 << 16):
        if max_entries < 1:
            raise ConfigError(f"max_entries must be >= 1, got {max_entries}")
        self.name = name
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        # Monotonic carry-over: counters folded in by clear(), so the
        # cumulative view survives cache resets (see cumulative_*).
        self._cleared_hits = 0
        self._cleared_misses = 0
        self._store: dict[Any, Any] = {}
        _REGISTRY[name] = self

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        try:
            value = self._store[key]
        except KeyError:
            self.misses += 1
            value = compute()
            if len(self._store) >= self.max_entries:
                self._store.pop(next(iter(self._store)))
            self._store[key] = value
            return value
        self.hits += 1
        return value

    def clear(self) -> None:
        """Drop entries and zero ``hits``/``misses``.

        The cleared counters are folded into the cumulative totals first
        — clearing drops memory, but never erases the process-lifetime
        history.
        """
        self._cleared_hits += self.hits
        self._cleared_misses += self.misses
        self._store.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    @property
    def cumulative_hits(self) -> int:
        """Process-lifetime hit count; monotonic across :meth:`clear`."""
        return self._cleared_hits + self.hits

    @property
    def cumulative_misses(self) -> int:
        """Process-lifetime miss count; monotonic across :meth:`clear`."""
        return self._cleared_misses + self.misses

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            name=self.name, hits=self.hits, misses=self.misses,
            entries=len(self._store),
        )


_REGISTRY: dict[str, EvalCache] = {}

LAYER_RUNTIME_CACHE = EvalCache("layer_runtime")
VSA_RUNTIME_CACHE = EvalCache("vsa_node_runtime")
MEMORY_PLAN_CACHE = EvalCache("memory_plan", max_entries=256)
SIMD_WIDTH_CACHE = EvalCache("simd_width", max_entries=1024)


def graph_cache_key(graph: "DataflowGraph") -> tuple:
    """A hashable, content-based identity for a dataflow graph.

    Captures everything the memory/SIMD models read: node names, units,
    GEMM/VSA dimensions, domains, FLOP and byte counters, and the edge
    set (the SIMD fusion rule walks predecessors). Two graphs with equal
    keys produce identical memory plans and SIMD widths.
    """
    nodes = tuple(
        (
            n.name,
            n.unit.value,
            (n.gemm.m, n.gemm.n, n.gemm.k) if n.gemm is not None else None,
            (n.vsa.n, n.vsa.d) if n.vsa is not None else None,
            n.domain.value,
            n.op.flops,
            n.op.bytes_written,
        )
        for n in sorted(graph, key=lambda node: node.name)
    )
    edges = tuple(sorted(graph.edges()))
    return (graph.workload, nodes, edges)


def cached_layer_runtime(h: int, w: int, nl: int, dims: "GemmDims") -> int:
    """Eq. 1 behind the keyed cache (see :func:`runtime.layer_runtime`).

    Computes through the undecorated model (``__wrapped__``) so a value
    is stored once, here — not duplicated into the ``lru_cache`` layer
    the sweep-side callers use.
    """
    return LAYER_RUNTIME_CACHE.get_or_compute(
        (h, w, nl, dims), lambda: layer_runtime.__wrapped__(h, w, nl, dims)
    )


def cached_vsa_node_runtime(
    h: int, w: int, nv: int, dims: "VsaDims", mapping: str = "best"
) -> int:
    """Eqs. 3/4 behind the keyed cache (see :func:`runtime.vsa_node_runtime`)."""
    return VSA_RUNTIME_CACHE.get_or_compute(
        (h, w, nv, dims, mapping),
        lambda: vsa_node_runtime.__wrapped__(h, w, nv, dims, mapping),
    )


def cached_plan_memory(
    graph: "DataflowGraph",
    precision: "MixedPrecisionConfig",
    ifmap_tile_rows: int = 512,
) -> MemoryPlan:
    """Memory sizing behind a graph-content key (see :func:`memory.plan_memory`).

    The plan depends only on graph content and deployed precision, not on
    the candidate geometry — so one exploration pays for it exactly once
    and every re-exploration of the same graph is a cache hit.
    """
    key = (
        graph_cache_key(graph),
        precision.neural.value,
        precision.symbolic.value,
        ifmap_tile_rows,
    )
    return MEMORY_PLAN_CACHE.get_or_compute(
        key, lambda: plan_memory(graph, precision, ifmap_tile_rows)
    )


def cached_simd_width(
    graph: "DataflowGraph",
    array_runtime_cycles: int,
    array_node_cycles: dict[str, int] | None = None,
    candidates: tuple[int, ...] = (16, 32, 64, 128, 256, 512),
    slack_fraction: float = 0.02,
) -> int:
    """SIMD sizing rule behind the keyed cache (see :func:`memory.simd_width`)."""
    key = (
        graph_cache_key(graph),
        array_runtime_cycles,
        tuple(sorted((array_node_cycles or {}).items())),
        candidates,
        slack_fraction,
    )
    return SIMD_WIDTH_CACHE.get_or_compute(
        key,
        lambda: simd_width(
            graph, array_runtime_cycles, array_node_cycles, candidates,
            slack_fraction,
        ),
    )


def _lru_model_stats() -> dict[str, CacheStats]:
    """The ``runtime.py`` ``lru_cache`` layers as :class:`CacheStats`.

    These caches are process-lifetime and invisible to the keyed
    registry; surfacing their sizes here is what lets a caller see their
    memory growth.
    """
    stats = {}
    for fn in (layer_runtime, vsa_node_runtime):
        info = fn.cache_info()
        name = f"lru.{fn.__name__}"
        stats[name] = CacheStats(
            name=name, hits=info.hits, misses=info.misses,
            entries=info.currsize,
        )
    return stats


def cache_stats() -> dict[str, CacheStats]:
    """Counters for every model cache — keyed registry *and* the
    ``runtime.py`` ``lru_cache`` layers (``lru.*`` names)."""
    stats = {name: cache.stats for name, cache in _REGISTRY.items()}
    stats.update(_lru_model_stats())
    return stats


#: Counters the ``lru_cache`` layers held at each ``cache_clear()``;
#: ``cache_info()`` resets with the cache, so the cumulative view must
#: carry the pre-clear totals itself.
_LRU_CLEARED: dict[str, tuple[int, int]] = {}


def cumulative_snapshot() -> dict[str, tuple[int, int]]:
    """Monotonic ``(hits, misses)`` per cache, for the life of the process.

    Unlike :func:`cache_stats`, these totals only grow:
    :func:`clear_model_caches` (and per-cache ``clear()``) folds the
    dropped counters into a running carry instead of zeroing them. A
    sweep takes one snapshot before it starts and diffs with
    :func:`delta_since` at the end; a clear that happens in between (a
    benchmark timing a cold run) cannot make a delta go negative or
    silently vanish.
    """
    snap = {
        name: (cache.cumulative_hits, cache.cumulative_misses)
        for name, cache in _REGISTRY.items()
    }
    for fn in (layer_runtime, vsa_node_runtime):
        info = fn.cache_info()
        name = f"lru.{fn.__name__}"
        h0, m0 = _LRU_CLEARED.get(name, (0, 0))
        snap[name] = (h0 + info.hits, m0 + info.misses)
    return snap


def delta_since(snapshot: dict[str, tuple[int, int]]) -> dict[str, CacheStats]:
    """Per-cache counter growth since a :func:`cumulative_snapshot`.

    Returns one :class:`CacheStats` per cache whose counters moved
    (``entries`` is the cache's *current* resident size, not a delta).
    Caches created after the snapshot count from zero. Because both
    endpoints are monotonic, the deltas are non-negative even when
    ``clear_model_caches()`` ran in between — the property that makes
    per-request accounting in a long-lived process trustworthy.
    """
    deltas: dict[str, CacheStats] = {}
    entries = {name: s.entries for name, s in cache_stats().items()}
    for name, (hits, misses) in cumulative_snapshot().items():
        h0, m0 = snapshot.get(name, (0, 0))
        if hits - h0 or misses - m0:
            deltas[name] = CacheStats(
                name=name, hits=hits - h0, misses=misses - m0,
                entries=entries.get(name, 0),
            )
    return deltas


def clear_model_caches() -> None:
    """Reset every keyed cache *and* the runtime ``lru_cache`` layers.

    :func:`cache_stats` counters zero; the cumulative view keeps
    counting — the dropped ``lru_cache`` counters are folded into
    :data:`_LRU_CLEARED` (the keyed caches carry their own fold in
    :meth:`EvalCache.clear`).
    """
    for cache in _REGISTRY.values():
        cache.clear()
    for fn in (layer_runtime, vsa_node_runtime):
        info = fn.cache_info()
        name = f"lru.{fn.__name__}"
        h0, m0 = _LRU_CLEARED.get(name, (0, 0))
        _LRU_CLEARED[name] = (h0 + info.hits, m0 + info.misses)
        fn.cache_clear()
